let max_line_bytes = 1 lsl 20
let block = 65536

type line = Line of string | Too_long | Eof

(* [buf.[pos .. len - 1]] is read but not yet returned. A line that
   spans blocks collects in [part] (its first [plen] bytes); [over] marks
   a line already past the cap, whose bytes are dropped up to its
   newline. *)
type t = {
  ic : in_channel;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable part : Bytes.t;
  mutable plen : int;
  mutable over : bool;
}

let create ic =
  { ic; buf = Bytes.create block; pos = 0; len = 0; part = Bytes.empty;
    plen = 0; over = false }

(* Keep [buf.[pos .. stop - 1]] as more of the current line, or drop the
   line once it passes the cap. *)
let append t stop =
  let k = stop - t.pos in
  if t.plen + k > max_line_bytes then begin
    t.over <- true;
    t.plen <- 0
  end
  else begin
    if t.plen + k > Bytes.length t.part then begin
      let size = max (t.plen + k) (2 * Bytes.length t.part) in
      let grown = Bytes.create (min max_line_bytes size) in
      Bytes.blit t.part 0 grown 0 t.plen;
      t.part <- grown
    end;
    Bytes.blit t.buf t.pos t.part t.plen k;
    t.plen <- t.plen + k
  end

(* The line ending at [stop], whose bytes before [t.pos] are in [part]. *)
let finish t stop =
  let k = stop - t.pos in
  let r =
    if t.over || t.plen + k > max_line_bytes then Too_long
    else if t.plen = 0 then Line (Bytes.sub_string t.buf t.pos k)
    else begin
      append t stop;
      Line (Bytes.sub_string t.part 0 t.plen)
    end
  in
  t.over <- false;
  t.plen <- 0;
  r

let rec next t =
  if t.pos = t.len then begin
    t.pos <- 0;
    t.len <- input t.ic t.buf 0 block
  end;
  if t.len = 0 then if t.over || t.plen > 0 then finish t 0 else Eof
  else begin
    let nl = ref t.pos in
    while !nl < t.len && Bytes.unsafe_get t.buf !nl <> '\n' do
      incr nl
    done;
    if !nl < t.len then begin
      let r = finish t !nl in
      t.pos <- !nl + 1;
      r
    end
    else begin
      if not t.over then append t t.len;
      t.pos <- t.len;
      next t
    end
  end
