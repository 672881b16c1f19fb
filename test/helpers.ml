(* Shared helpers for the test suites. *)

module Splitmix = Mis_util.Splitmix
module Graph = Mis_graph.Graph
module View = Mis_graph.View

(* [seed] fixes the generator's state, so the cases are the same on every
   run; without it they follow QCheck's run seed. *)
let qtest ?(count = 100) ?seed name arbitrary prop =
  QCheck_alcotest.to_alcotest
    ?rand:(Option.map (fun s -> Random.State.make [| s |]) seed)
    (QCheck.Test.make ~count ~name arbitrary prop)

(* Deterministic random tree from a seed. *)
let random_tree ~seed ~n =
  Mis_workload.Trees.random_prufer (Splitmix.of_seed seed) ~n

(* Erdős–Rényi random graph, possibly disconnected. *)
let random_graph ~seed ~n ~p =
  let rng = Splitmix.of_seed seed in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Splitmix.float rng < p then edges := (i, j) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let full g = View.full g

(* The MIS predicates, over [Check.classify]'s verdict. *)
let is_mis view set = Mis_graph.Check.classify view set = Mis_graph.Check.Mis
let is_independent view set =
  Mis_graph.Check.classify view set <> Mis_graph.Check.Not_independent

let check_mis ~name view set =
  if not (is_independent view set) then
    Alcotest.failf "%s: independence violated" name;
  if not (is_mis view set) then
    Alcotest.failf "%s: not maximal" name

let bool_array = Alcotest.(array bool)
let int_array = Alcotest.(array int)

(* Small-ish positive sizes for property tests. *)
let arb_size = QCheck.int_range 1 40
let arb_seed = QCheck.int_range 0 10_000

(* MD5 of a graph's edge list as "u v\n" lines, for byte-for-byte pins. *)
let edges_digest g =
  Graph.edges g
  |> Array.map (fun (u, v) -> Printf.sprintf "%d %d\n" u v)
  |> Array.to_list |> String.concat "" |> Digest.string |> Digest.to_hex

(* Words reachable from a compiled kernel (which keeps no reference to
   its view), per node, after a warm Luby and a warm FairTree run on it:
   the compile plus the one scratch both programs share. *)
let kernel_words_per_node view kernel =
  let plan = Fairmis.Rand_plan.make 1 in
  for _ = 1 to 2 do
    ignore (Fairmis.Luby.run_kernel_on kernel plan);
    ignore (Fairmis.Fair_tree_distributed.run_kernel_on kernel plan)
  done;
  float_of_int (Obj.reachable_words (Obj.repr kernel))
  /. float_of_int (View.n view)

(* The centralized algorithm A' of paper Sec. V, kept as a test reference:
   on a bipartite graph, independently per connected component, pick one
   side of the bipartition with a fair coin — a perfectly fair MIS (every
   node of a non-singleton component joins with probability exactly 1/2).
   [None] when the active subgraph is not bipartite. *)
let fair_bipartite view rng =
  match Mis_graph.Traverse.bipartition view with
  | None -> None
  | Some side ->
    let label, comp_count = Mis_graph.Traverse.components view in
    let pick = Array.init comp_count (fun _ -> if Splitmix.bool rng then 1 else 0) in
    let in_mis = Array.make (View.n view) false in
    View.iter_active view (fun u ->
        if View.degree view u = 0 then in_mis.(u) <- true
        else in_mis.(u) <- side.(u) = pick.(label.(u)));
    Some in_mis

(* Sequential greedy along a given node order: the oracle of
   [Centralized.greedy_random_permutation] under its seeded order. *)
let greedy_in_order view ~order =
  let in_mis = Array.make (View.n view) false in
  let covered = Array.make (View.n view) false in
  Array.iter
    (fun u ->
      if View.node_active view u && not covered.(u) then begin
        in_mis.(u) <- true;
        covered.(u) <- true;
        View.iter_adj view u (fun v -> covered.(v) <- true)
      end)
    order;
  in_mis

(* A registry timer's (seconds, calls), read through a snapshot. *)
let timer_value reg name =
  match List.assoc_opt name (Mis_obs.Metrics.items (Mis_obs.Metrics.snapshot reg)) with
  | Some (Mis_obs.Metrics.Timer_v { v_seconds; v_calls }) -> (v_seconds, v_calls)
  | _ -> Alcotest.failf "no timer %S" name

(* Wilson score interval for one node's join probability. *)
let wilson_interval ~count ~trials ~z =
  if trials < 1 then invalid_arg "wilson_interval";
  let n = float_of_int trials and p = float_of_int count /. float_of_int trials in
  let z2 = z *. z in
  let denom = 1. +. (z2 /. n) in
  let center = (p +. (z2 /. (2. *. n))) /. denom in
  let half =
    z /. denom *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n)))
  in
  (Float.max 0. (center -. half), Float.min 1. (center +. half))
