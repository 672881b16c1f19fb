type t = {
  nodes : int array;
  trials : int;
  joins : int array;
}

let create ~nodes ~trials ~joins =
  if trials < 1 then invalid_arg "Empirical.create: trials";
  Array.iter
    (fun u ->
      if u < 0 || u >= Array.length joins then
        invalid_arg "Empirical.create: node out of range";
      if joins.(u) < 0 || joins.(u) > trials then
        invalid_arg "Empirical.create: join count out of range")
    nodes;
  { nodes; trials; joins }

let of_fairness ?mask acc =
  let mask =
    match mask with
    | Some m -> m
    | None -> Array.make (Mis_obs.Fairness.n acc) true
  in
  let nodes = ref [] in
  for u = Array.length mask - 1 downto 0 do
    if mask.(u) then nodes := u :: !nodes
  done;
  create ~nodes:(Array.of_list !nodes) ~trials:(Mis_obs.Fairness.runs acc)
    ~joins:(Mis_obs.Fairness.joins acc)

let trials t = t.trials
let node_count t = Array.length t.nodes
let frequency t u = float_of_int t.joins.(u) /. float_of_int t.trials

let frequencies t = Array.map (fun u -> frequency t u) t.nodes

let fold f init t =
  Array.fold_left (fun acc u -> f acc (frequency t u)) init t.nodes

let min_frequency t = fold Float.min infinity t
let max_frequency t = fold Float.max neg_infinity t

let mean_frequency t =
  if node_count t = 0 then nan
  else fold ( +. ) 0. t /. float_of_int (node_count t)

let inequality_factor t =
  let lo = min_frequency t and hi = max_frequency t in
  if node_count t = 0 then nan else if lo = 0. then infinity else hi /. lo

let cdf t =
  let freqs = frequencies t in
  Array.sort Float.compare freqs;
  let n = Array.length freqs in
  if n = 0 then [||]
  else begin
    let points = ref [] in
    for i = n - 1 downto 0 do
      (* Keep the last (largest) index per distinct value. *)
      if i = n - 1 || freqs.(i) <> freqs.(i + 1) then
        points := (freqs.(i), float_of_int (i + 1) /. float_of_int n) :: !points
    done;
    Array.of_list !points
  end

let quantile t q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Empirical.quantile";
  let freqs = frequencies t in
  Array.sort Float.compare freqs;
  let n = Array.length freqs in
  if n = 0 then nan
  else begin
    let idx = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    freqs.(max 0 (min (n - 1) idx))
  end

type summary = {
  nodes : int;
  trials : int;
  min_freq : float;
  max_freq : float;
  mean_freq : float;
  factor : float;
}

let summarize t =
  { nodes = node_count t; trials = t.trials; min_freq = min_frequency t;
    max_freq = max_frequency t; mean_freq = mean_frequency t;
    factor = inequality_factor t }
