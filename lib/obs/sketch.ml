(* Log-bucketed quantile sketch (DDSketch-style, fixed range).

   Bucket i > 0 covers (gamma^(i-1), gamma^i]; a positive value v maps to
   i = ceil (log_gamma v). The representative 2*gamma^i/(gamma+1) is at
   relative distance exactly (gamma-1)/(gamma+1) = accuracy from both
   bucket edges, which is where the per-value error bound comes from.
   Indices are offset into a fixed array covering [min_value, max_value];
   the array is allocated once at create and never grows. *)

type t = {
  acc : float;  (* relative-error bound, the user-facing parameter *)
  inv_log_gamma : float;  (* 1 / log gamma, cached for add *)
  log_gamma : float;
  lo : int;  (* log-index of the first array slot *)
  counts : int array;  (* slot c = log-index lo + c; last slot clamps *)
  mutable zero : int;  (* observations in [0, min_value) *)
  mutable total : int;
  mutable s : float;
  mutable min_v : float;
  mutable max_v : float;
}

let log_index ~log_gamma v =
  (* ceil (log v / log gamma) without drifting on exact powers. *)
  int_of_float (Float.ceil (Float.log v /. log_gamma -. 1e-9))

let create ?(accuracy = 0.01) ?(min_value = 1e-9) ?(max_value = 1e9) () =
  if not (accuracy > 0. && accuracy < 1.) then
    invalid_arg "Sketch.create: accuracy must be in (0, 1)";
  if not (min_value > 0. && max_value > min_value) then
    invalid_arg "Sketch.create: need 0 < min_value < max_value";
  let gamma = (1. +. accuracy) /. (1. -. accuracy) in
  let log_gamma = Float.log gamma in
  let lo = log_index ~log_gamma min_value in
  let hi = log_index ~log_gamma max_value in
  { acc = accuracy;
    inv_log_gamma = 1. /. log_gamma;
    log_gamma;
    lo;
    counts = Array.make (hi - lo + 1) 0;
    zero = 0;
    total = 0;
    s = 0.;
    min_v = Float.infinity;
    max_v = Float.neg_infinity }

let copy t = { t with counts = Array.copy t.counts }

let add t v =
  if not (Float.is_finite v) || v < 0. then
    invalid_arg "Sketch.add: value must be finite and >= 0";
  let n = Array.length t.counts in
  if v = 0. then t.zero <- t.zero + 1
  else begin
    let i =
      int_of_float (Float.ceil ((Float.log v *. t.inv_log_gamma) -. 1e-9))
      - t.lo
    in
    if i < 0 then t.zero <- t.zero + 1
    else begin
      let i = if i >= n then n - 1 else i in
      t.counts.(i) <- t.counts.(i) + 1
    end
  end;
  t.total <- t.total + 1;
  t.s <- t.s +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.total
let sum t = t.s
let min_value t = if t.total = 0 then None else Some t.min_v
let max_value t = if t.total = 0 then None else Some t.max_v
let accuracy t = t.acc

let value_of_index t i =
  (* Midpoint (in relative distance) of bucket i's range. *)
  2. *. Float.exp (float_of_int i *. t.log_gamma)
  /. (Float.exp t.log_gamma +. 1.)

(* ceil (q * total) in exact integer arithmetic. The float product
   [q *. float_of_int total] can round to an integer from above or below
   (0.1 *. 10. is exactly 1.0 even though the double 0.1 is > 1/10), and
   ceil then lands the rank one off. Instead: frexp splits q into
   m * 2^e with m in [0.5, 1); m * 2^53 is integral for any double, so
   q = mant / 2^k exactly with k = 53 - e, and
   ceil (q * total) = (mant * total + 2^k - 1) >> k, formed in 128 bits
   from 32-bit limbs. *)
let ceil_rank ~total q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Sketch.ceil_rank: q must be in [0, 1]";
  if total < 0 then invalid_arg "Sketch.ceil_rank: total must be >= 0";
  if total = 0 || q = 0. then 0
  else if q = 1. then total
  else begin
    let m, e = Float.frexp q in
    let mant = Int64.of_float (Float.ldexp m 53) in
    let k = 53 - e in
    (* mant * total < 2^53 * 2^62 = 2^115, so k >= 115 means
       q * total <= 1 and the ceiling is 1. *)
    if k >= 115 then 1
    else begin
      let t64 = Int64.of_int total in
      let mask = 0xFFFF_FFFFL in
      let a0 = Int64.logand mant mask
      and a1 = Int64.shift_right_logical mant 32
      and b0 = Int64.logand t64 mask
      and b1 = Int64.shift_right_logical t64 32 in
      let p00 = Int64.mul a0 b0
      and p01 = Int64.mul a0 b1
      and p10 = Int64.mul a1 b0
      and p11 = Int64.mul a1 b1 in
      let mid =
        Int64.add
          (Int64.shift_right_logical p00 32)
          (Int64.add (Int64.logand p10 mask) (Int64.logand p01 mask))
      in
      let lo = Int64.logor (Int64.shift_left mid 32) (Int64.logand p00 mask) in
      let hi =
        Int64.add p11
          (Int64.add
             (Int64.add
                (Int64.shift_right_logical p10 32)
                (Int64.shift_right_logical p01 32))
             (Int64.shift_right_logical mid 32))
      in
      (* hi:lo += 2^k - 1, with 53 <= k <= 114. *)
      let add_lo, add_hi =
        if k <= 63 then (Int64.sub (Int64.shift_left 1L k) 1L, 0L)
        else (-1L, Int64.sub (Int64.shift_left 1L (k - 64)) 1L)
      in
      let sum_lo = Int64.add lo add_lo in
      let carry = if Int64.unsigned_compare sum_lo lo < 0 then 1L else 0L in
      let sum_hi = Int64.add hi (Int64.add add_hi carry) in
      let r =
        if k < 64 then
          Int64.logor
            (Int64.shift_right_logical sum_lo k)
            (Int64.shift_left sum_hi (64 - k))
        else Int64.shift_right_logical sum_hi (k - 64)
      in
      Int64.to_int r
    end
  end

let quantile t q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Sketch.quantile: q must be in [0, 1]";
  if t.total = 0 then None
  else if q = 0. then Some t.min_v  (* exact endpoints *)
  else if q = 1. then Some t.max_v
  else begin
    let rank = max 1 (ceil_rank ~total:t.total q) in
    let est =
      if rank <= t.zero then 0.
      else begin
        let seen = ref t.zero in
        let slot = ref (-1) in
        let n = Array.length t.counts in
        let c = ref 0 in
        while !slot < 0 && !c < n do
          seen := !seen + t.counts.(!c);
          if !seen >= rank then slot := !c;
          incr c
        done;
        if !slot < 0 then t.max_v  (* unreachable unless counts raced *)
        else value_of_index t (t.lo + !slot)
      end
    in
    (* Clamp to the observed extremes: tightens the tails and makes
       q = 0 / q = 1 exact. *)
    Some (Float.min t.max_v (Float.max t.min_v est))
  end

(* --- the exact offline percentile --------------------------------------- *)

let nearest_rank xs q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Sketch.nearest_rank: q must be in [0, 1]";
  let n = Array.length xs in
  if n = 0 then None
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let rank = ceil_rank ~total:n q in
    Some a.(max 0 (min (n - 1) (rank - 1)))
  end
