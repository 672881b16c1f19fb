(* Tests for Cole–Vishkin, FairRooted and FairTree. *)

module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Rooted = Mis_graph.Rooted
module Splitmix = Mis_util.Splitmix
module Cv = Fairmis.Cole_vishkin
module Fair_rooted = Fairmis.Fair_rooted
module Fair_tree = Fairmis.Fair_tree
module Rand_plan = Fairmis.Rand_plan

let plan seed = Rand_plan.make seed

let random_rooted ~seed ~n =
  let g = Helpers.random_tree ~seed ~n in
  Rooted.of_tree g ~root:0

(* Cole–Vishkin *)

let check_proper_forest_coloring t ~keep color =
  let ok = ref true in
  Array.iteri
    (fun v p ->
      if keep.(v) then begin
        if color.(v) < 0 || color.(v) > 2 then ok := false;
        if p >= 0 && keep.(p) && color.(v) = color.(p) then ok := false
      end)
    t.Rooted.parent;
  !ok

let prop_cv_three_colors =
  Helpers.qtest "cole-vishkin: proper 3-coloring of random rooted trees"
    QCheck.(pair (int_range 1 80) Helpers.arb_seed)
    (fun (n, seed) ->
      let t = random_rooted ~seed ~n in
      let keep = Array.make n true in
      let color, rounds = Cv.three_color ~ids:(Array.init n (fun i -> i)) t in
      check_proper_forest_coloring t ~keep color && rounds <= 20)

let prop_cv_with_random_ids =
  Helpers.qtest "cole-vishkin: works with sparse random ids"
    QCheck.(pair (int_range 1 60) Helpers.arb_seed)
    (fun (n, seed) ->
      let t = random_rooted ~seed ~n in
      let ids = Mis_util.Ids.random_distinct (Splitmix.of_seed (seed + 1)) ~n in
      let color, _ = Cv.three_color ~ids t in
      check_proper_forest_coloring t ~keep:(Array.make n true) color)

let prop_cv_mis_valid =
  Helpers.qtest "cole-vishkin: MIS of random rooted forests"
    QCheck.(pair (int_range 1 80) Helpers.arb_seed)
    (fun (n, seed) ->
      let t = random_rooted ~seed ~n in
      let mis, _ = Cv.mis ~ids:(Array.init n (fun i -> i)) t in
      let g = Rooted.to_graph t in
      Helpers.is_mis (View.full g) mis)

let prop_cv_mis_on_restricted_forest =
  Helpers.qtest ~count:60 "cole-vishkin: MIS on a random sub-forest"
    QCheck.(triple (int_range 2 60) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, seed, mseed) ->
      let t = random_rooted ~seed ~n in
      let rng = Splitmix.of_seed mseed in
      let keep = Array.init n (fun _ -> Splitmix.bool rng) in
      let residual = Rooted.restrict t ~keep in
      let mis, _ = Cv.mis ~keep ~ids:(Array.init n (fun i -> i)) residual in
      (* Validate against the kept subgraph of the underlying forest. *)
      let g = Rooted.to_graph t in
      let v = View.restrict ~nodes:keep g in
      Helpers.is_mis v mis
      && Array.for_all2 (fun k m -> k || not m) keep mis)

let test_cv_path_known () =
  (* A rooted path must 3-color with alternating-ish classes; MIS covers. *)
  let t = Rooted.of_parents [| -1; 0; 1; 2; 3; 4 |] in
  let mis, rounds = Cv.mis ~ids:[| 0; 1; 2; 3; 4; 5 |] t in
  let g = Rooted.to_graph t in
  Alcotest.(check bool) "valid" true (Helpers.is_mis (View.full g) mis);
  Alcotest.(check bool) "log* rounds" true (rounds <= 16)

let test_cv_single_node () =
  let t = Rooted.of_parents [| -1 |] in
  let mis, _ = Cv.mis ~ids:[| 0 |] t in
  Alcotest.check Helpers.bool_array "join" [| true |] mis

(* FairRooted *)

let prop_fair_rooted_valid =
  Helpers.qtest "fair_rooted: valid MIS on random rooted trees"
    QCheck.(triple (int_range 1 80) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let t = random_rooted ~seed:gseed ~n in
      let mis = Fair_rooted.run t (plan seed) in
      let g = Rooted.to_graph t in
      Helpers.is_mis (View.full g) mis)

let prop_fair_rooted_stage1_independent =
  Helpers.qtest "fair_rooted: stage-1 set is independent and kept"
    QCheck.(triple (int_range 1 80) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let t = random_rooted ~seed:gseed ~n in
      let mis, trace = Fair_rooted.run_traced t (plan seed) in
      let g = Rooted.to_graph t in
      Helpers.is_independent (View.full g) trace.Fair_rooted.stage1
      && Array.for_all2 (fun s final -> (not s) || final) trace.Fair_rooted.stage1 mis)

let prop_fair_rooted_on_forest =
  Helpers.qtest ~count:60 "fair_rooted: valid on rooted forests"
    QCheck.(triple (int_range 2 40) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      (* Two disjoint random trees glued into one parent array. *)
      let t1 = random_rooted ~seed:gseed ~n in
      let t2 = random_rooted ~seed:(gseed + 1) ~n in
      let parent =
        Array.append t1.Rooted.parent
          (Array.map (fun p -> if p < 0 then -1 else p + n) t2.Rooted.parent)
      in
      let t = Rooted.of_parents parent in
      let mis = Fair_rooted.run t (plan seed) in
      Helpers.is_mis (View.full (Rooted.to_graph t)) mis)

let prop_fair_rooted_distributed_matches_fast =
  Helpers.qtest ~count:60 "fair_rooted: distributed program = fast engine"
    QCheck.(triple (int_range 1 40) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let t = random_rooted ~seed:gseed ~n in
      let p = plan seed in
      let fast = Fair_rooted.run t p in
      let outcome = Fairmis.Fair_rooted_distributed.run t p in
      Array.for_all (fun b -> b) outcome.Mis_sim.Runtime.decided
      && fast = outcome.Mis_sim.Runtime.output)

let prop_fair_rooted_distributed_on_forest =
  Helpers.qtest ~count:40 "fair_rooted: engines agree on forests"
    QCheck.(triple (int_range 2 25) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let t1 = random_rooted ~seed:gseed ~n in
      let t2 = random_rooted ~seed:(gseed + 1) ~n in
      let parent =
        Array.append t1.Rooted.parent
          (Array.map (fun p -> if p < 0 then -1 else p + n) t2.Rooted.parent)
      in
      let t = Rooted.of_parents parent in
      let p = plan seed in
      let fast = Fair_rooted.run t p in
      let outcome = Fairmis.Fair_rooted_distributed.run t p in
      fast = outcome.Mis_sim.Runtime.output)

let test_cv_iterations_schedule () =
  Alcotest.(check int) "bound 6 needs none" 0 (Cv.iterations ~id_bound:6);
  Alcotest.(check bool) "grows slowly" true (Cv.iterations ~id_bound:(1 lsl 40) <= 6);
  Alcotest.(check bool) "monotone-ish" true
    (Cv.iterations ~id_bound:100 >= Cv.iterations ~id_bound:7)

let prop_cv_fixed_schedule_proper =
  Helpers.qtest ~count:60 "cole-vishkin: fixed schedule still 3-colors"
    QCheck.(pair (int_range 1 60) Helpers.arb_seed)
    (fun (n, seed) ->
      let t = random_rooted ~seed ~n in
      let schedule = Cv.iterations ~id_bound:n in
      let color, _ =
        Cv.three_color ~schedule ~ids:(Array.init n (fun i -> i)) t
      in
      check_proper_forest_coloring t ~keep:(Array.make n true) color)

(* FairRooted with its coins abstracted out, kept as the oracle of
   [Fair_rooted.run]: [tag v] is node v's stage-1 bit, [vtag r] the
   virtual-parent bit root r draws. Stage 1 joins a node whose own tag is
   0 and whose parent's tag is 1; covered nodes stop and the rest run
   Cole–Vishkin. *)
let run_with_tags (t : Rooted.t) ~tag ~vtag =
  let n = t.Rooted.n in
  let parent_tag v = match t.Rooted.parent.(v) with -1 -> vtag v | p -> tag p in
  let stage1 = Array.init n (fun v -> (not (tag v)) && parent_tag v) in
  let covered = Array.copy stage1 in
  Array.iteri
    (fun v p ->
      if p >= 0 && stage1.(v) then covered.(p) <- true
      else if p >= 0 && stage1.(p) then covered.(v) <- true)
    t.Rooted.parent;
  let keep = Array.map not covered in
  let ids = Array.init n Fun.id in
  let schedule = Cv.iterations ~id_bound:(max 1 n) in
  let rest, _ = Cv.mis (Rooted.restrict t ~keep) ~keep ~schedule ~ids in
  Array.init n (fun v -> stage1.(v) || (keep.(v) && rest.(v)))

(* Exact per-node join probability by exhausting all 2^(n + #roots) coin
   outcomes (the whole randomness of FairRooted: stage 2 is deterministic
   given ids): a noise-free check of Theorem 3. *)
let exact_join_probabilities (t : Rooted.t) =
  let n = t.Rooted.n in
  let roots =
    Array.of_list
      (List.filter (fun v -> t.Rooted.parent.(v) = -1) (List.init n Fun.id))
  in
  let coins = n + Array.length roots in
  if coins > 24 then invalid_arg "exact_join_probabilities: n + roots > 24";
  (* Coin i < n is node i's tag; coin n + j is root j's virtual tag. *)
  let root_slot = Array.make n (-1) in
  Array.iteri (fun j root -> root_slot.(root) <- j) roots;
  let totals = Array.make n 0 in
  let outcomes = 1 lsl coins in
  for word = 0 to outcomes - 1 do
    let tag v = (word lsr v) land 1 = 1 in
    let vtag v = (word lsr (n + root_slot.(v))) land 1 = 1 in
    Array.iteri
      (fun v b -> if b then totals.(v) <- totals.(v) + 1)
      (run_with_tags t ~tag ~vtag)
  done;
  Array.map (fun c -> float_of_int c /. float_of_int outcomes) totals

let prop_fair_rooted_exact_quarter =
  Helpers.qtest ~count:40 "fair_rooted: exact join probabilities in [1/4, 1]"
    QCheck.(pair (int_range 1 12) Helpers.arb_seed)
    (fun (n, seed) ->
      let t = random_rooted ~seed ~n in
      let probs = exact_join_probabilities t in
      Array.for_all (fun p -> p >= 0.25 -. 1e-12 && p <= 1. +. 1e-12) probs)

let test_fair_rooted_exact_single () =
  let t = Rooted.of_parents [| -1 |] in
  let probs = exact_join_probabilities t in
  (* A lone root: it joins unless covered — stage 1 puts it in with
     probability 1/4, and stage 2 always adds an uncovered singleton. *)
  Alcotest.(check (float 1e-12)) "always joins" 1.0 probs.(0)

let test_fair_rooted_exact_pair () =
  let t = Rooted.of_parents [| -1; 0 |] in
  let probs = exact_join_probabilities t in
  (* By symmetry of the pair, probabilities sum to at least 1 (exactly one
     of the two joins in every outcome) and respect the 1/4 bound. *)
  Alcotest.(check (float 1e-12)) "pair covers" 1.0 (probs.(0) +. probs.(1));
  Alcotest.(check bool) "both above 1/4" true (probs.(0) >= 0.25 && probs.(1) >= 0.25)

let test_fair_rooted_exact_matches_montecarlo () =
  let t = random_rooted ~seed:9 ~n:8 in
  let exact = exact_join_probabilities t in
  let trials = 4000 in
  let joins = Array.make 8 0 in
  for seed = 0 to trials - 1 do
    let mis = Fair_rooted.run t (plan seed) in
    if seed < 200 then begin
      (* The oracle with the plan's coins is the algorithm itself. *)
      let bit stage v = Rand_plan.node_bit (plan seed) ~stage ~node:v in
      Alcotest.check Helpers.bool_array (Printf.sprintf "seed %d" seed)
        (run_with_tags t ~tag:(bit Rand_plan.Stage.fair_rooted_tag)
           ~vtag:(bit Rand_plan.Stage.fair_rooted_virtual))
        mis
    end;
    Array.iteri (fun v b -> if b then joins.(v) <- joins.(v) + 1) mis
  done;
  Array.iteri
    (fun v c ->
      let freq = float_of_int c /. float_of_int trials in
      if abs_float (freq -. exact.(v)) > 0.04 then
        Alcotest.failf "node %d: monte carlo %f vs exact %f" v freq exact.(v))
    joins

let test_fair_rooted_exact_guard () =
  let t = random_rooted ~seed:1 ~n:30 in
  Alcotest.(check bool) "too many coins rejected" true
    (match exact_join_probabilities t with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_fair_rooted_rounds () =
  let t = random_rooted ~seed:3 ~n:500 in
  let _, trace = Fair_rooted.run_traced t (plan 1) in
  Alcotest.(check bool) "log* rounds" true (trace.Fair_rooted.rounds <= 24)

(* FairTree *)

let prop_fair_tree_valid_on_trees =
  Helpers.qtest "fair_tree: valid MIS on random trees"
    QCheck.(triple (int_range 1 60) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      Helpers.is_mis v (Fair_tree.run v (plan seed)))

let prop_fair_tree_valid_on_any_graph =
  Helpers.qtest ~count:60 "fair_tree: still a valid MIS on non-trees"
    QCheck.(triple (int_range 1 30) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.25 in
      let v = View.full g in
      Helpers.is_mis v (Fair_tree.run v (plan seed)))

(* The stage sets of one run of the message program, read from its
   [fairtree.i1], [fairtree.i2] and [fairtree.i4] probes. Only probes
   reach the ring, so message events cannot push them out of it. *)
let fair_tree_stage_sets v p =
  let n = View.n v in
  let mem, events = Mis_obs.Trace.memory () in
  let sink =
    { mem with
      Mis_obs.Trace.emit =
        (function
          | Mis_obs.Trace.Annotate _ as e -> mem.Mis_obs.Trace.emit e
          | _ -> ()) }
  in
  ignore (Fairmis.Fair_tree_distributed.run ~tracer:sink v p);
  let set key =
    let a = Array.make n false in
    List.iter
      (function
        | Mis_obs.Trace.Annotate { node; key = k; value; _ } when k = key ->
          a.(node) <- value = 1
        | _ -> ())
      (events ());
    a
  in
  (set "fairtree.i1", set "fairtree.i2", set "fairtree.i4")

let prop_fair_tree_stage_invariants =
  Helpers.qtest ~count:60 "fair_tree: stage containments and independence"
    QCheck.(triple (int_range 1 60) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      let i1, i2, i4 = fair_tree_stage_sets v (plan seed) in
      (* I2 is a subset of I1; on trees with the default gamma I2 is
         independent, so the stage-4 repair keeps all of it. *)
      Array.for_all2 (fun i2 i1 -> (not i2) || i1) i2 i1
      && Array.for_all2 (fun i2 i4 -> (not i2) || i4) i2 i4
      && Helpers.is_independent v i2)

let prop_fair_tree_conflicts_cross_cut_edges =
  (* The Lemma 11 invariant: on a tree with the default gamma, stage-1
     components are covered by a correct MIS, so any edge between two I1
     members must be a cut edge (the stage-2 components live on cut
     edges). *)
  Helpers.qtest ~count:60 "fair_tree: I1 conflicts only across cut edges"
    QCheck.(triple (int_range 2 60) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      let p = plan seed in
      let i1, _, _ = fair_tree_stage_sets v p in
      Array.for_all
        (fun (a, b) ->
          (not (i1.(a) && i1.(b)))
          || Rand_plan.edge_bit p ~stage:Rand_plan.Stage.fair_tree_cut ~u:a ~v:b)
        (Graph.edges g))

let prop_fair_tree_no_fallback_on_small_trees =
  Helpers.qtest ~count:60 "fair_tree: Luby fallback never fires on small trees"
    QCheck.(triple (int_range 1 60) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      let _, tr = Fair_tree.run_traced v (plan seed) in
      tr.Fair_tree.fallback_nodes = 0)

let prop_fair_tree_small_gamma_still_valid =
  Helpers.qtest ~count:60 "fair_tree: tiny gamma still yields a valid MIS"
    QCheck.(triple (int_range 1 40) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      Helpers.is_mis v (Fair_tree.run ~gamma:1 v (plan seed)))

let test_fair_tree_single_node () =
  let g = Graph.of_edges ~n:1 [] in
  let v = View.full g in
  Alcotest.check Helpers.bool_array "joins" [| true |] (Fair_tree.run v (plan 1))

let test_fair_tree_two_nodes () =
  let g = Graph.of_edges ~n:2 [ (0, 1) ] in
  let v = View.full g in
  for seed = 0 to 30 do
    let mis = Fair_tree.run v (plan seed) in
    Helpers.check_mis ~name:"pair" v mis
  done

let test_fair_tree_deterministic () =
  let g = Helpers.random_tree ~seed:2 ~n:200 in
  let v = View.full g in
  Alcotest.check Helpers.bool_array "same seed same MIS"
    (Fair_tree.run v (plan 77)) (Fair_tree.run v (plan 77))

let test_fair_tree_gamma_default_grows () =
  Alcotest.(check bool) "monotone" true
    (Fairmis.Fair_tree_distributed.gamma_default ~n:10 < Fairmis.Fair_tree_distributed.gamma_default ~n:100_000)

let prop_fair_tree_distributed_matches_fast =
  Helpers.qtest ~count:50 "fair_tree: distributed program = fast engine"
    QCheck.(triple (int_range 1 25) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      let p = plan seed in
      let fast = Fair_tree.run v p in
      let outcome = Fairmis.Fair_tree_distributed.run v p in
      Array.for_all (fun b -> b) outcome.Mis_sim.Runtime.decided
      && fast = outcome.Mis_sim.Runtime.output)

let prop_fair_tree_distributed_matches_fast_nontree =
  Helpers.qtest ~count:40 "fair_tree: engines agree on non-trees too"
    QCheck.(triple (int_range 1 18) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.25 in
      let v = View.full g in
      let p = plan seed in
      let fast = Fair_tree.run v p in
      let outcome = Fairmis.Fair_tree_distributed.run v p in
      Array.for_all (fun b -> b) outcome.Mis_sim.Runtime.decided
      && fast = outcome.Mis_sim.Runtime.output)

let prop_fair_tree_distributed_small_gamma =
  Helpers.qtest ~count:40 "fair_tree: engines agree with tiny gamma (fallback path)"
    QCheck.(triple (int_range 2 25) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      let p = plan seed in
      let fast = Fair_tree.run ~gamma:1 v p in
      let outcome = Fairmis.Fair_tree_distributed.run ~gamma:1 v p in
      Array.for_all (fun b -> b) outcome.Mis_sim.Runtime.decided
      && fast = outcome.Mis_sim.Runtime.output)

let test_fair_tree_distributed_round_schedule () =
  (* Without a Luby fallback the program ends exactly at round 6g+5. *)
  let g = Helpers.random_tree ~seed:6 ~n:30 in
  let v = View.full g in
  let gamma = Fairmis.Fair_tree_distributed.gamma_default ~n:30 in
  let _, tr = Fair_tree.run_traced v (plan 2) in
  Alcotest.(check int) "no fallback expected" 0 tr.Fair_tree.fallback_nodes;
  let outcome = Fairmis.Fair_tree_distributed.run v (plan 2) in
  Alcotest.(check int) "fixed schedule" ((6 * gamma) + 5)
    outcome.Mis_sim.Runtime.rounds

let test_wilson_covers_exact () =
  (* The Wilson interval around a Monte Carlo estimate should cover the
     exact FairRooted probability for (essentially) every node. *)
  let t = random_rooted ~seed:14 ~n:10 in
  let exact = exact_join_probabilities t in
  let trials = 2000 in
  let joins = Array.make 10 0 in
  for seed = 0 to trials - 1 do
    let mis = Fair_rooted.run t (plan (7000 + seed)) in
    Array.iteri (fun v b -> if b then joins.(v) <- joins.(v) + 1) mis
  done;
  let misses = ref 0 in
  Array.iteri
    (fun v c ->
      let lo, hi =
        Helpers.wilson_interval ~count:c ~trials ~z:3.3
      in
      if exact.(v) < lo || exact.(v) > hi then incr misses)
    joins;
  Alcotest.(check int) "z=3.3 interval covers all 10 nodes" 0 !misses

let test_fair_tree_distributed_message_bits () =
  (* The CONGEST discipline: every message is O(log n) bits. *)
  let g = Helpers.random_tree ~seed:4 ~n:40 in
  let v = View.full g in
  let outcome = Fairmis.Fair_tree_distributed.run v (plan 3) in
  Alcotest.(check bool) "messages fit in O(log n) bits" true
    (outcome.Mis_sim.Runtime.max_message_bits <= 62)

let prop_fair_tree_masked_view =
  Helpers.qtest ~count:40 "fair_tree: valid on masked views of a tree"
    QCheck.(triple (int_range 2 40) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let rng = Splitmix.of_seed (gseed + 5) in
      let nodes = Array.init n (fun _ -> Splitmix.bool rng) in
      let v = View.restrict ~nodes g in
      let mis = Fair_tree.run v (plan seed) in
      Helpers.is_mis v mis
      && Array.for_all2 (fun active m -> active || not m) nodes mis)

let suite =
  [ ( "algo.cole_vishkin",
      [ prop_cv_three_colors;
        prop_cv_with_random_ids;
        prop_cv_mis_valid;
        prop_cv_mis_on_restricted_forest;
        Alcotest.test_case "path" `Quick test_cv_path_known;
        Alcotest.test_case "single node" `Quick test_cv_single_node ] );
    ( "algo.fair_rooted",
      [ prop_fair_rooted_valid;
        prop_fair_rooted_stage1_independent;
        prop_fair_rooted_on_forest;
        prop_fair_rooted_distributed_matches_fast;
        prop_fair_rooted_distributed_on_forest;
        Alcotest.test_case "cv iteration schedule" `Quick
          test_cv_iterations_schedule;
        prop_cv_fixed_schedule_proper;
        prop_fair_rooted_exact_quarter;
        Alcotest.test_case "exact: singleton" `Quick test_fair_rooted_exact_single;
        Alcotest.test_case "exact: pair" `Quick test_fair_rooted_exact_pair;
        Alcotest.test_case "exact matches monte carlo" `Slow
          test_fair_rooted_exact_matches_montecarlo;
        Alcotest.test_case "exact guard" `Quick test_fair_rooted_exact_guard;
        Alcotest.test_case "rounds" `Quick test_fair_rooted_rounds ] );
    ( "algo.fair_tree",
      [ prop_fair_tree_valid_on_trees;
        prop_fair_tree_valid_on_any_graph;
        prop_fair_tree_stage_invariants;
        prop_fair_tree_conflicts_cross_cut_edges;
        prop_fair_tree_no_fallback_on_small_trees;
        prop_fair_tree_small_gamma_still_valid;
        Alcotest.test_case "single node" `Quick test_fair_tree_single_node;
        Alcotest.test_case "two nodes" `Quick test_fair_tree_two_nodes;
        Alcotest.test_case "deterministic" `Quick test_fair_tree_deterministic;
        Alcotest.test_case "gamma default grows" `Quick
          test_fair_tree_gamma_default_grows;
        prop_fair_tree_masked_view ] );
    ( "algo.fair_tree_distributed",
      [ prop_fair_tree_distributed_matches_fast;
        prop_fair_tree_distributed_matches_fast_nontree;
        prop_fair_tree_distributed_small_gamma;
        Alcotest.test_case "round schedule" `Quick
          test_fair_tree_distributed_round_schedule;
        Alcotest.test_case "wilson covers exact probabilities" `Slow
          test_wilson_covers_exact;
        Alcotest.test_case "message bits" `Quick
          test_fair_tree_distributed_message_bits ] ) ]
