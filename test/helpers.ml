(* Shared helpers for the test suites. *)

module Splitmix = Mis_util.Splitmix
module Graph = Mis_graph.Graph
module View = Mis_graph.View

let qtest ?(count = 100) name arbitrary prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary prop)

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

let check_mis ~name view set =
  if not (Fairmis.Mis.is_independent view set) then
    Alcotest.failf "%s: independence violated" name;
  if not (Fairmis.Mis.is_maximal view set) then
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

(* Words reachable from a compiled kernel but not from its view, per
   node, after a warm Luby and a warm FairTree run on it: the compile
   plus one scratch of each kind. *)
let kernel_words_per_node view kernel =
  let plan = Fairmis.Rand_plan.make 1 in
  for _ = 1 to 2 do
    ignore (Fairmis.Luby.run_kernel_on kernel plan);
    ignore (Fairmis.Fair_tree_distributed.run_kernel_on kernel plan)
  done;
  let words =
    Obj.reachable_words (Obj.repr kernel) - Obj.reachable_words (Obj.repr view)
  in
  float_of_int words /. float_of_int (View.n view)
