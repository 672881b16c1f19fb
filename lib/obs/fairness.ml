type t = {
  n : int;
  joins : int array;
  mutable runs : int;
}

let create ~n =
  if n < 0 then invalid_arg "Fairness.create: n must be >= 0";
  { n; joins = Array.make n 0; runs = 0 }

let n t = t.n
let runs t = t.runs
let joins t = Array.copy t.joins

(* Runs once per trial, so a plain loop: no closure to allocate. *)
let record t ~in_mis =
  if Array.length in_mis <> t.n then
    invalid_arg "Fairness.record: mask length";
  for u = 0 to t.n - 1 do
    if in_mis.(u) then t.joins.(u) <- t.joins.(u) + 1
  done;
  t.runs <- t.runs + 1

let merge a b =
  if a.n <> b.n then invalid_arg "Fairness.merge: node counts differ";
  for u = 0 to a.n - 1 do
    a.joins.(u) <- a.joins.(u) + b.joins.(u)
  done;
  a.runs <- a.runs + b.runs

let frequencies t =
  if t.runs = 0 then Array.make t.n nan
  else Array.map (fun c -> float_of_int c /. float_of_int t.runs) t.joins

(* --- rendering ---------------------------------------------------------- *)

let glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let heatmap_rows = 32

(* Past [heatmap_rows] rows of one node per glyph, each glyph covers
   [per] consecutive nodes at the level of their mean join count. *)
let heatmap ?(width = 64) t =
  if width < 1 then invalid_arg "Fairness.heatmap: width";
  let hi =
    Array.fold_left (fun a c -> max a c) 0 t.joins |> float_of_int
  in
  let per = max 1 ((t.n + (heatmap_rows * width) - 1) / (heatmap_rows * width)) in
  let cells = (t.n + per - 1) / per in
  let buf = Buffer.create (4 * cells) in
  Buffer.add_string buf
    (Printf.sprintf "per-node join frequency (n=%d, runs=%d, max P=%s%s)\n" t.n
       t.runs
       (if t.runs = 0 then "-"
        else Printf.sprintf "%.3f" (hi /. float_of_int t.runs))
       (if per = 1 then "" else Printf.sprintf ", %d nodes per glyph" per));
  let rows = (cells + width - 1) / width in
  for row = 0 to rows - 1 do
    let lo = row * width in
    Buffer.add_string buf (Printf.sprintf "%6d " (lo * per));
    for c = lo to min (lo + width - 1) (cells - 1) do
      let first = c * per and stop = min ((c + 1) * per) t.n in
      let sum = ref 0 in
      for u = first to stop - 1 do
        sum := !sum + t.joins.(u)
      done;
      let level =
        if hi <= 0. then 0
        else
          let f = float_of_int !sum /. float_of_int (stop - first) /. hi in
          min 7 (int_of_float (Float.round (f *. 7.)))
      in
      Buffer.add_string buf glyphs.(level)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let histogram ?(bins = 10) ?(width = 40) t =
  if bins < 1 || width < 1 then invalid_arg "Fairness.histogram";
  let freqs = frequencies t in
  let counts = Array.make bins 0 in
  Array.iter
    (fun f ->
      if Float.is_nan f then ()
      else begin
        let b = int_of_float (f *. float_of_int bins) in
        let b = max 0 (min (bins - 1) b) in
        counts.(b) <- counts.(b) + 1
      end)
    freqs;
  let peak = Array.fold_left max 0 counts in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "join-frequency histogram (%d nodes, %d bins)\n"
       (Array.length freqs) bins);
  for b = 0 to bins - 1 do
    let lo = float_of_int b /. float_of_int bins in
    let hi = float_of_int (b + 1) /. float_of_int bins in
    let bar =
      if peak = 0 then 0 else counts.(b) * width / peak
    in
    Buffer.add_string buf
      (Printf.sprintf "  [%.2f,%.2f%c %-*s %d\n" lo hi
         (if b = bins - 1 then ']' else ')')
         width
         (String.make bar '#')
         counts.(b))
  done;
  Buffer.contents buf
