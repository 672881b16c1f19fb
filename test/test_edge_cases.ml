(* Degenerate inputs: the empty graph, fully masked views, and singleton
   graphs, across every algorithm entry point. *)

module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Rand_plan = Fairmis.Rand_plan

let plan = Rand_plan.make 1

let empty_graph = Graph.of_edges ~n:0 []
let singleton = Graph.of_edges ~n:1 []

let masked_view =
  let g = Mis_workload.Trees.path 5 in
  View.restrict ~nodes:(Array.make 5 false) g

let check_empty name out =
  if Array.exists (fun b -> b) out then Alcotest.failf "%s: nonempty MIS" name

let test_empty_graph () =
  let v = View.full empty_graph in
  check_empty "luby" (Fairmis.Luby.run v plan);
  check_empty "luby_degree" (Fairmis.Luby_degree.run v plan);
  check_empty "fair_tree" (Fairmis.Fair_tree.run v plan);
  check_empty "fair_bipart" (Fairmis.Fair_bipart.run v plan);
  check_empty "greedy"
    (Fairmis.Centralized.greedy_random_permutation v (Mis_util.Splitmix.of_seed 1));
  check_empty "color_mis"
    (Fairmis.Color_mis.run v ~coloring:[||] ~k:1 plan)

let test_fully_masked_view () =
  check_empty "luby" (Fairmis.Luby.run masked_view plan);
  check_empty "fair_tree" (Fairmis.Fair_tree.run masked_view plan);
  check_empty "fair_bipart" (Fairmis.Fair_bipart.run masked_view plan);
  Alcotest.(check bool) "masked view is a (vacuous) MIS" true
    (Helpers.is_mis masked_view (Array.make 5 false))

let test_singleton () =
  let v = View.full singleton in
  let expect name out =
    if not out.(0) then Alcotest.failf "%s: singleton must join" name
  in
  expect "luby" (Fairmis.Luby.run v plan);
  expect "luby_degree" (Fairmis.Luby_degree.run v plan);
  expect "fair_tree" (Fairmis.Fair_tree.run v plan);
  expect "fair_bipart" (Fairmis.Fair_bipart.run v plan);
  expect "color_mis"
    (Fairmis.Color_mis.run v ~coloring:[| 0 |] ~k:1 plan);
  match Helpers.fair_bipartite v (Mis_util.Splitmix.of_seed 1) with
  | Some out -> expect "centralized A'" out
  | None -> Alcotest.fail "singleton is bipartite"

let test_empty_distributed () =
  let v = View.full empty_graph in
  let outcome = Fairmis.Luby.run_distributed v plan in
  Alcotest.(check int) "no rounds needed" 0 outcome.Mis_sim.Runtime.rounds

let test_singleton_rooted () =
  let t = Mis_graph.Rooted.of_parents [| -1 |] in
  let out = Fairmis.Fair_rooted.run t plan in
  Alcotest.(check bool) "joins" true out.(0);
  let outcome = Fairmis.Fair_rooted_distributed.run t plan in
  Alcotest.(check bool) "distributed agrees" true
    (outcome.Mis_sim.Runtime.output = out)

let test_empirical_empty_nodes () =
  let e = Mis_stats.Empirical.create ~nodes:[||] ~trials:5 ~joins:[||] in
  Alcotest.(check bool) "factor is nan" true
    (Float.is_nan (Mis_stats.Empirical.inequality_factor e));
  Alcotest.(check int) "cdf empty" 0 (Array.length (Mis_stats.Empirical.cdf e))

let suite =
  [ ( "edge_cases",
      [ Alcotest.test_case "empty graph" `Quick test_empty_graph;
        Alcotest.test_case "fully masked view" `Quick test_fully_masked_view;
        Alcotest.test_case "singleton joins everywhere" `Quick test_singleton;
        Alcotest.test_case "empty distributed run" `Quick test_empty_distributed;
        Alcotest.test_case "singleton rooted" `Quick test_singleton_rooted;
        Alcotest.test_case "empirical with no nodes" `Quick
          test_empirical_empty_nodes ] ) ]
