type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_seed s = { state = mix64 (Int64.of_int s) }
let of_key k = { state = k }

let next_int64 t =
  let s = Int64.add t.state golden in
  t.state <- s;
  mix64 s

let bits62 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  (* Rejection sampling on 62 uniform bits. *)
  let max62 = (1 lsl 62) - 1 in
  let limit = max62 - (max62 mod bound) in
  let rec draw () =
    let v = bits62 t in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let float t =
  let bits53 = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  Float.of_int bits53 *. 0x1p-53

let bool t = Int64.logand (next_int64 t) 1L = 1L

let geometric_truncated t ~p ~gamma =
  if not (p > 0. && p < 1.) then invalid_arg "Splitmix.geometric_truncated: p";
  if gamma < 0 then invalid_arg "Splitmix.geometric_truncated: gamma";
  let rec loop k = if k >= gamma || float t >= p then k else loop (k + 1) in
  loop 0

let derive seed keys =
  let step h k =
    mix64 (Int64.logxor (Int64.mul h 0xFF51AFD7ED558CCDL) (Int64.of_int (k + 0x5851F42D))) in
  List.fold_left step (mix64 seed) keys

let stream seed keys = of_key (derive seed keys)
