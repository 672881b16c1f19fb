(* Tests for Mis checkers, Luby (kernel and message program), and
   CntrlFairBipart. *)

module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Traverse = Mis_graph.Traverse
module Splitmix = Mis_util.Splitmix
module Check = Mis_graph.Check
module Mis = Fairmis.Mis
module Luby = Fairmis.Luby
module Cfb = Cntrl_fair_bipart
module Rand_plan = Fairmis.Rand_plan

let plan seed = Rand_plan.make seed

let test_remove_violations () =
  let g = Mis_workload.Trees.path 4 in
  let v = View.full g in
  let cleaned = Mis.remove_violations v [| true; true; false; true |] in
  Alcotest.check Helpers.bool_array "both endpoints removed"
    [| false; false; false; true |] cleaned

let test_uncovered () =
  let g = Mis_workload.Trees.path 5 in
  let v = View.full g in
  let u = Mis.uncovered v [| true; false; false; false; false |] in
  Alcotest.check Helpers.bool_array "tail uncovered"
    [| false; false; true; true; true |] u

let test_violations_list () =
  let g = Mis_workload.Trees.path 3 in
  let v = View.full g in
  Alcotest.(check bool) "one violation" true
    (Check.classify v [| true; true; false |] = Check.Not_independent)

let test_verify_raises () =
  let g = Mis_workload.Trees.path 3 in
  let v = View.full g in
  Alcotest.(check bool) "invalid raises" true
    (match Mis.verify ~name:"t" v [| true; true; false |] with
    | exception Mis.Invalid _ -> true
    | _ -> false)

(* The closure-based checks that the one-pass CSR loops replaced, kept
   here as the oracle. *)
module Closure_check = struct
  let is_independent view set =
    let ok = ref true in
    View.iter_active view (fun u ->
        if set.(u) then View.iter_adj view u (fun v -> if set.(v) then ok := false));
    !ok

  let is_maximal view set =
    is_independent view set
    &&
    let ok = ref true in
    View.iter_active view (fun u ->
        if (not set.(u)) && not (View.exists_adj view u (fun v -> set.(v))) then
          ok := false);
    !ok

  let verify ~name view set =
    if not (is_independent view set) then
      raise (Mis.Invalid (name ^ ": independence violated"));
    if not (is_maximal view set) then raise (Mis.Invalid (name ^ ": not maximal"))

  let remove_violations view set =
    let out = Array.copy set in
    View.iter_active view (fun u ->
        if set.(u) && View.exists_adj view u (fun v -> set.(v)) then out.(u) <- false);
    out

  let uncovered view set =
    let out = Array.make (View.n view) false in
    View.iter_active view (fun u ->
        if (not set.(u)) && not (View.exists_adj view u (fun v -> set.(v))) then
          out.(u) <- true);
    out
end

let verify_message f =
  match f () with () -> "ok" | exception Mis.Invalid msg -> msg

(* Random graphs with random node and edge masks; the sets are a valid
   MIS of the view, each of its single-node flips, and random sets. *)
let prop_one_pass_check_equals_closures =
  Helpers.qtest ~count:200 "checks: one-pass CSR loops = closure oracle"
    QCheck.(
      pair (pair (int_range 1 30) (float_range 0. 0.5))
        (pair Helpers.arb_seed (pair (float_range 0. 1.) (float_range 0. 1.))))
    (fun ((n, p), (seed, (node_keep, edge_keep))) ->
      let g = Helpers.random_graph ~seed ~n ~p in
      let rng = Splitmix.of_seed (seed + 1) in
      let mask k len = Array.init len (fun _ -> Splitmix.float rng < k) in
      let view =
        View.restrict ~nodes:(mask node_keep n)
          ~edges:(mask edge_keep (Graph.m g)) g
      in
      let mis = Luby.run view (plan seed) in
      let flips =
        List.init n (fun u ->
            let s = Array.copy mis in
            s.(u) <- not s.(u);
            s)
      in
      let randoms = List.init 8 (fun _ -> mask (Splitmix.float rng) n) in
      List.for_all
        (fun set ->
          Helpers.is_independent view set = Closure_check.is_independent view set
          && Helpers.is_mis view set = Closure_check.is_maximal view set
          && verify_message (fun () -> Mis.verify ~name:"t" view set)
             = verify_message (fun () -> Closure_check.verify ~name:"t" view set)
          && Mis.remove_violations view set
             = Closure_check.remove_violations view set
          && Mis.uncovered view set = Closure_check.uncovered view set)
        ((mis :: flips) @ randoms))

(* Luby *)

let prop_luby_valid_on_trees =
  Helpers.qtest "luby: valid MIS on random trees"
    QCheck.(triple (int_range 1 60) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      let mis = Luby.run v (plan seed) in
      Helpers.is_mis v mis)

let prop_luby_valid_on_random_graphs =
  Helpers.qtest "luby: valid MIS on random graphs"
    QCheck.(triple (int_range 1 40) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.2 in
      let v = View.full g in
      let mis = Luby.run v (plan seed) in
      Helpers.is_mis v mis)

let prop_luby_valid_on_views =
  Helpers.qtest ~count:60 "luby: valid MIS on masked views"
    QCheck.(triple (int_range 2 40) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.25 in
      let mask_rng = Splitmix.of_seed (gseed + 77) in
      let nodes = Array.init n (fun _ -> Splitmix.bool mask_rng) in
      let v = View.restrict ~nodes g in
      let mis = Luby.run v (plan seed) in
      Helpers.is_mis v mis
      && Array.for_all2 (fun active m -> active || not m) nodes mis)

let test_luby_clique () =
  (* Exactly one node of a clique joins. *)
  let g = Mis_workload.Special.clique 20 in
  let v = View.full g in
  for seed = 0 to 20 do
    let mis = Luby.run v (plan seed) in
    let size = Array.fold_left (fun a b -> if b then a + 1 else a) 0 mis in
    Alcotest.(check int) "singleton" 1 size
  done

let test_luby_isolated () =
  let g = Graph.of_edges ~n:3 [] in
  let mis = Luby.run (View.full g) (plan 1) in
  Alcotest.check Helpers.bool_array "all isolated join" [| true; true; true |] mis

let test_luby_deterministic_per_seed () =
  let g = Helpers.random_tree ~seed:3 ~n:50 in
  let v = View.full g in
  Alcotest.check Helpers.bool_array "same seed, same output"
    (Luby.run v (plan 9)) (Luby.run v (plan 9))

let prop_luby_fast_matches_distributed =
  Helpers.qtest ~count:60 "luby: fast engine = distributed engine"
    QCheck.(triple (int_range 1 30) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.2 in
      let v = View.full g in
      let fast = Luby.run v (plan seed) in
      let outcome = Luby.run_distributed v (plan seed) in
      Array.for_all (fun b -> b) outcome.Mis_sim.Runtime.decided
      && fast = outcome.Mis_sim.Runtime.output)

let test_luby_star_exact_probabilities () =
  (* On a star, priority Luby resolves in one phase: the hub joins iff it
     wins the first comparison (probability exactly 1/n), otherwise all
     leaves join. So P(hub) = 1/n and P(leaf) = 1 - 1/n exactly. *)
  let n = 16 in
  let g = Mis_workload.Trees.star n in
  let v = View.full g in
  let trials = 20_000 in
  let hub = ref 0 and leaf = ref 0 in
  for seed = 0 to trials - 1 do
    let mis = Luby.run v (plan seed) in
    if mis.(0) then incr hub;
    if mis.(1) then incr leaf
  done;
  let hub_freq = float_of_int !hub /. float_of_int trials in
  let leaf_freq = float_of_int !leaf /. float_of_int trials in
  Alcotest.(check bool) "hub ~ 1/n" true (abs_float (hub_freq -. (1. /. 16.)) < 0.01);
  Alcotest.(check bool) "leaf ~ 1 - 1/n" true
    (abs_float (leaf_freq -. (15. /. 16.)) < 0.01)

let test_luby_phases_logarithmic () =
  (* Not a proof, just a regression guard: phases stay small. *)
  let g = Helpers.random_tree ~seed:5 ~n:2000 in
  let v = View.full g in
  let _, stats = Luby.run_stats v (plan 4) in
  if stats.Luby.phases > 30 then
    Alcotest.failf "too many phases: %d" stats.Luby.phases

(* Luby's original degree-based variant (Algorithm A) *)

module Luby_degree = Fairmis.Luby_degree

let prop_luby_degree_valid =
  Helpers.qtest "luby_degree: valid MIS on random graphs"
    QCheck.(triple (int_range 1 40) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.2 in
      let v = View.full g in
      Helpers.is_mis v (Luby_degree.run v (plan seed)))

let prop_luby_degree_valid_on_trees =
  Helpers.qtest "luby_degree: valid MIS on random trees"
    QCheck.(triple (int_range 1 60) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      Helpers.is_mis v (Luby_degree.run v (plan seed)))

let prop_luby_degree_fast_matches_distributed =
  Helpers.qtest ~count:60 "luby_degree: fast engine = distributed engine"
    QCheck.(triple (int_range 1 30) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.2 in
      let v = View.full g in
      let fast = Luby_degree.run v (plan seed) in
      let outcome = Luby_degree.run_distributed v (plan seed) in
      Array.for_all (fun b -> b) outcome.Mis_sim.Runtime.decided
      && fast = outcome.Mis_sim.Runtime.output)

let test_luby_degree_isolated () =
  let g = Graph.of_edges ~n:3 [] in
  let mis = Luby_degree.run (View.full g) (plan 1) in
  Alcotest.check Helpers.bool_array "all isolated join" [| true; true; true |] mis

let test_luby_degree_phases () =
  let g = Helpers.random_tree ~seed:5 ~n:2000 in
  let o = Luby_degree.run_distributed (View.full g) (plan 4) in
  (* Three rounds per phase; the last phase may end early. *)
  let phases = (o.Mis_sim.Runtime.rounds + 2) / 3 in
  if phases > 60 then Alcotest.failf "too many phases: %d" phases

(* CntrlFairBipart, on its message program: [cfb_run] executes it with a
   fixed leader bit, [Cfb.run_distributed] with the plan's coins. *)

let cfb_run v ~d_hat ~bit =
  Mis_sim.Runtime.run ~rng_of:Splitmix.of_seed v
    (Cfb.program ~d_hat ~bit_of:(fun _ -> bit))

let prop_cfb_valid_when_dhat_large =
  Helpers.qtest "cfb: valid MIS when d_hat >= diameter"
    QCheck.(triple (int_range 1 50) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      let d = Traverse.diameter_exact v in
      let o = Cfb.run_distributed v ~plan:(plan seed) ~stage:1 ~d_hat:(max 1 d) in
      Helpers.is_mis v o.Mis_sim.Runtime.output)

let test_cfb_levels_are_bfs_distances () =
  (* Leader is the max index 5, so with bit = 0 exactly the nodes at an
     even distance from it join. *)
  let g = Mis_workload.Trees.path 6 in
  let o = cfb_run (View.full g) ~d_hat:6 ~bit:false in
  Alcotest.check Helpers.bool_array "parity join"
    [| false; true; false; true; false; true |] o.Mis_sim.Runtime.output

let test_cfb_bit_flips_selection () =
  let g = Mis_workload.Trees.path 6 in
  let o = cfb_run (View.full g) ~d_hat:6 ~bit:true in
  Alcotest.check Helpers.bool_array "odd levels join"
    [| true; false; true; false; true; false |] o.Mis_sim.Runtime.output

let test_cfb_isolated_always_joins () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  let o = cfb_run (View.full g) ~d_hat:3 ~bit:true in
  Alcotest.(check bool) "isolated 2 joins" true o.Mis_sim.Runtime.output.(2);
  Alcotest.(check bool) "isolated 3 joins" true o.Mis_sim.Runtime.output.(3)

let test_cfb_d_hat_validation () =
  let g = Mis_workload.Trees.path 3 in
  Alcotest.(check bool) "d_hat 0 rejected" true
    (match cfb_run (View.full g) ~d_hat:0 ~bit:false with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cfb_underestimate_still_terminates () =
  (* d_hat too small: every node decides (not necessarily an MIS). *)
  let g = Mis_workload.Trees.path 30 in
  let o = cfb_run (View.full g) ~d_hat:2 ~bit:false in
  Alcotest.(check int) "rounds" 4 o.Mis_sim.Runtime.rounds;
  Alcotest.(check bool) "all decided" true
    (Array.for_all Fun.id o.Mis_sim.Runtime.decided)

let test_cfb_rounds () =
  let g = Mis_workload.Trees.path 5 in
  let o = cfb_run (View.full g) ~d_hat:7 ~bit:false in
  Alcotest.(check int) "2 d_hat rounds" 14 o.Mis_sim.Runtime.rounds

let suite =
  [ ( "mis.checkers",
      [ Alcotest.test_case "remove violations" `Quick test_remove_violations;
        Alcotest.test_case "uncovered" `Quick test_uncovered;
        Alcotest.test_case "violations list" `Quick test_violations_list;
        Alcotest.test_case "verify raises" `Quick test_verify_raises;
        prop_one_pass_check_equals_closures ] );
    ( "mis.luby",
      [ prop_luby_valid_on_trees;
        prop_luby_valid_on_random_graphs;
        prop_luby_valid_on_views;
        Alcotest.test_case "clique" `Quick test_luby_clique;
        Alcotest.test_case "isolated nodes" `Quick test_luby_isolated;
        Alcotest.test_case "deterministic per seed" `Quick
          test_luby_deterministic_per_seed;
        prop_luby_fast_matches_distributed;
        Alcotest.test_case "star exact probabilities" `Slow
          test_luby_star_exact_probabilities;
        Alcotest.test_case "phases stay logarithmic" `Quick
          test_luby_phases_logarithmic ] );
    ( "mis.luby_degree",
      [ prop_luby_degree_valid;
        prop_luby_degree_valid_on_trees;
        prop_luby_degree_fast_matches_distributed;
        Alcotest.test_case "isolated nodes" `Quick test_luby_degree_isolated;
        Alcotest.test_case "phases bounded" `Quick test_luby_degree_phases ] );
    ( "mis.cntrl_fair_bipart",
      [ prop_cfb_valid_when_dhat_large;
        Alcotest.test_case "levels are BFS distances" `Quick
          test_cfb_levels_are_bfs_distances;
        Alcotest.test_case "bit flips selection" `Quick test_cfb_bit_flips_selection;
        Alcotest.test_case "isolated always joins" `Quick
          test_cfb_isolated_always_joins;
        Alcotest.test_case "d_hat validation" `Quick test_cfb_d_hat_validation;
        Alcotest.test_case "underestimate terminates" `Quick
          test_cfb_underestimate_still_terminates;
        Alcotest.test_case "round accounting" `Quick test_cfb_rounds ] ) ]
