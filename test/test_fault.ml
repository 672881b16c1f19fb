(* Tests for the fault-injection layer: zero-fault equivalence with the
   perfect-network runtime, reproducibility of faulty runs, drop / crash /
   delay / adversary semantics, the robust wrappers, and the
   surviving-subgraph MIS oracle. *)

module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Check = Mis_graph.Check
module Program = Mis_sim.Program
module Runtime = Mis_sim.Runtime
module Fault = Mis_sim.Fault
module Node_ctx = Mis_sim.Node_ctx
module Splitmix = Mis_util.Splitmix
module Trees = Mis_workload.Trees
module Rand_plan = Fairmis.Rand_plan

let rng_of u = Splitmix.stream 7L [ u ]

let check_outcome_equal name (a : Runtime.outcome) (b : Runtime.outcome) =
  Alcotest.check Helpers.bool_array (name ^ ": output") a.output b.output;
  Alcotest.check Helpers.bool_array (name ^ ": decided") a.decided b.decided;
  Alcotest.(check int) (name ^ ": rounds") a.rounds b.rounds;
  Alcotest.(check int) (name ^ ": messages") a.messages b.messages;
  Alcotest.(check int) (name ^ ": bits") a.max_message_bits b.max_message_bits;
  Alcotest.(check int) (name ^ ": dropped") a.dropped b.dropped;
  Alcotest.(check int) (name ^ ": delayed") a.delayed b.delayed;
  Alcotest.check Helpers.bool_array (name ^ ": crashed") a.crashed b.crashed

(* Every node floods the largest id it has heard for [k] rounds, then
   outputs whether it equals [expect]. *)
type flood_state = { best : int; left : int }

let flood_program ~k ~expect : (flood_state, int) Program.t =
  { Program.name = "flood";
    init =
      (fun ctx ->
        ({ best = ctx.Node_ctx.id; left = k },
         [ Program.Broadcast ctx.Node_ctx.id ]));
    receive =
      (fun _ st inbox ->
        let best = List.fold_left (fun acc (_, v) -> max acc v) st.best inbox in
        if st.left <= 1 then (Program.Output (best = expect), [])
        else
          (Program.Continue { best; left = st.left - 1 },
           [ Program.Broadcast best ])) }

(* --- zero-fault equivalence ------------------------------------------- *)

let test_zero_plan_is_none () =
  Alcotest.(check bool) "none" true (Fault.is_none Fault.none);
  Alcotest.(check bool) "create ()" true (Fault.is_none (Fault.create ()));
  Alcotest.(check bool) "drop" false (Fault.is_none (Fault.create ~drop:0.1 ()));
  Alcotest.(check bool) "crash" false
    (Fault.is_none (Fault.create ~crashes:[ (0, 1) ] ()));
  Alcotest.(check bool) "delay" false
    (Fault.is_none (Fault.create ~max_delay:1 ()))

let test_zero_fault_equivalence () =
  let scenarios =
    [ ("path", View.full (Trees.path 10));
      ("star", View.full (Trees.star 12));
      ("masked",
       View.restrict ~nodes:[| true; true; false; true; true; true; false; true |] (Trees.path 8)) ]
  in
  List.iter
    (fun (name, view) ->
      let run faults =
        Runtime.run ?faults ~rng_of view (flood_program ~k:9 ~expect:9)
      in
      let base = run None in
      check_outcome_equal (name ^ " none") base (run (Some Fault.none));
      check_outcome_equal (name ^ " zero create") base
        (run (Some (Fault.create ())));
      Alcotest.(check int) (name ^ " no drops") 0 base.Runtime.dropped;
      Alcotest.(check int) (name ^ " no delays") 0 base.Runtime.delayed;
      Alcotest.(check bool) (name ^ " no crashes") false
        (Array.exists (fun b -> b) base.Runtime.crashed))
    scenarios

(* Pre-change golden outcomes, captured on the seed runtime before the
   fault layer existed: with no fault plan the new runtime must reproduce
   them bit for bit. *)

let hash_bools a =
  Array.fold_left
    (fun h b -> ((h * 1000003) + if b then 1 else 0) land 0x3FFFFFFF)
    17 a

let mis_size = Array.fold_left (fun a b -> if b then a + 1 else a) 0

let test_golden_regression () =
  let plan = Rand_plan.make 42 in
  let check name (rounds, messages, bits, out_hash, dec_hash, size)
      (o : Runtime.outcome) =
    Alcotest.(check int) (name ^ ": rounds") rounds o.rounds;
    Alcotest.(check int) (name ^ ": messages") messages o.messages;
    Alcotest.(check int) (name ^ ": bits") bits o.max_message_bits;
    Alcotest.(check int) (name ^ ": output hash") out_hash (hash_bools o.output);
    Alcotest.(check int) (name ^ ": decided hash") dec_hash (hash_bools o.decided);
    Alcotest.(check int) (name ^ ": size") size (mis_size o.output)
  in
  check "luby path10"
    (2, 27, 0, 380779963, 851508045, 4)
    (Fairmis.Luby.run_distributed (View.full (Trees.path 10)) plan);
  let t = Trees.random_prufer (Splitmix.of_seed 9) ~n:60 in
  check "luby prufer60"
    (5, 181, 0, 559015436, 374739993, 33)
    (Fairmis.Luby.run_distributed (View.full t) plan);
  check "fairtree alternating"
    (137, 3727, 11, 529672261, 300882788, 16)
    (Fairmis.Fair_tree_distributed.run
       (View.full (Trees.alternating ~branch:4 ~depth:3))
       plan);
  check "fairtree star17"
    (137, 2242, 11, 181852627, 308165908, 16)
    (Fairmis.Fair_tree_distributed.run (View.full (Trees.star 17)) plan);
  let nodes = Array.init 12 (fun i -> i <> 5) in
  check "luby masked path12"
    (4, 27, 0, 574797625, 70628384, 6)
    (Fairmis.Luby.run_distributed (View.restrict ~nodes (Trees.path 12)) plan)

(* --- reproducibility --------------------------------------------------- *)

let test_faulty_run_reproducible () =
  let view = View.full (Helpers.random_tree ~seed:3 ~n:80) in
  let plan = Rand_plan.make 11 in
  let faults () =
    Fault.create ~seed:5 ~drop:0.2 ~max_delay:2 ~crashes:[ (4, 3); (17, 0) ] ()
  in
  let go () = Fairmis.Robust.run_luby ~faults:(faults ()) view plan in
  check_outcome_equal "faulty repeat" (go ()) (go ());
  (* A different fault seed gives a different execution. *)
  let other =
    Fairmis.Robust.run_luby
      ~faults:(Fault.create ~seed:6 ~drop:0.2 ~max_delay:2 ()) view plan
  in
  let same = go () in
  Alcotest.(check bool) "fault seed matters" false
    (same.Runtime.dropped = other.Runtime.dropped
    && same.Runtime.output = other.Runtime.output
    && same.Runtime.delayed = other.Runtime.delayed)

(* --- drops ------------------------------------------------------------- *)

let test_total_drop () =
  let g = Trees.path 4 in
  let o =
    Runtime.run ~faults:(Fault.create ~drop:1.0 ()) ~rng_of (View.full g)
      (flood_program ~k:2 ~expect:3)
  in
  (* 2 rounds of broadcasts, 2m = 6 directed messages each, all lost. *)
  Alcotest.(check int) "nothing delivered" 0 o.Runtime.messages;
  Alcotest.(check int) "all dropped" 12 o.Runtime.dropped;
  (* Only node 3 still believes the max is 3. *)
  Alcotest.check Helpers.bool_array "isolated beliefs"
    [| false; false; false; true |] o.Runtime.output

let test_drop_accounting_sums () =
  let view = View.full (Trees.star 10) in
  let o =
    Runtime.run ~faults:(Fault.create ~seed:2 ~drop:0.5 ()) ~rng_of view
      (flood_program ~k:2 ~expect:9)
  in
  (* Every send is either delivered or dropped, never both. *)
  Alcotest.(check int) "conservation" (2 * 2 * 9)
    (o.Runtime.messages + o.Runtime.dropped);
  Alcotest.(check bool) "some dropped" true (o.Runtime.dropped > 0);
  Alcotest.(check bool) "some delivered" true (o.Runtime.messages > 0)

let test_edge_drop_override () =
  (* Drop only what node 2 (the max) sends: nobody else ever learns 2. *)
  let g = Trees.path 3 in
  let edge_drop ~src ~dst:_ = if src = 2 then 1.0 else 0.0 in
  let o =
    Runtime.run ~faults:(Fault.create ~edge_drop ()) ~rng_of (View.full g)
      (flood_program ~k:4 ~expect:2)
  in
  Alcotest.check Helpers.bool_array "max never escapes"
    [| false; false; true |] o.Runtime.output

(* --- adversary --------------------------------------------------------- *)

let test_adversary_targeted_drop () =
  let g = Trees.path 3 in
  let adversary ~round:_ ~src ~dst:_ = src = 2 in
  let o =
    Runtime.run ~faults:(Fault.create ~adversary ()) ~rng_of (View.full g)
      (flood_program ~k:4 ~expect:2)
  in
  Alcotest.check Helpers.bool_array "adversary silences the max"
    [| false; false; true |] o.Runtime.output;
  Alcotest.(check bool) "drops counted" true (o.Runtime.dropped > 0)

(* --- crashes ----------------------------------------------------------- *)

let test_crash_stop () =
  (* Path 0-1-2-3-4; node 4 (the max) crashes at round 2: its id floods
     one hop (round 1 receive was executed) but no further. *)
  let g = Trees.path 5 in
  let o =
    Runtime.run ~faults:(Fault.create ~crashes:[ (4, 2) ] ()) ~rng_of
      (View.full g) (flood_program ~k:8 ~expect:4)
  in
  Alcotest.(check bool) "crashed flag" true o.Runtime.crashed.(4);
  Alcotest.(check bool) "crashed never decides" false o.Runtime.decided.(4);
  (* Node 3 heard 4's initial broadcast; it keeps flooding it. *)
  Alcotest.check Helpers.bool_array "flood of the crashed id continues"
    [| true; true; true; true; false |] o.Runtime.output

let test_crash_at_round_zero_silences () =
  (* Crashing at round 0 suppresses even the initial broadcast. *)
  let g = Trees.path 5 in
  let o =
    Runtime.run ~faults:(Fault.create ~crashes:[ (4, 0) ] ()) ~rng_of
      (View.full g) (flood_program ~k:8 ~expect:4)
  in
  Alcotest.check Helpers.bool_array "id 4 was never heard"
    [| false; false; false; false; false |] o.Runtime.output;
  Alcotest.(check bool) "crashed flag" true o.Runtime.crashed.(4)

let test_crash_terminates_run () =
  (* The run ends once every surviving node decided; the crashed node does
     not hold the loop open until max_rounds. *)
  let g = Trees.path 3 in
  let o =
    Runtime.run ~max_rounds:500 ~faults:(Fault.create ~crashes:[ (1, 1) ] ())
      ~rng_of (View.full g) (flood_program ~k:3 ~expect:2)
  in
  Alcotest.(check int) "stops with the survivors" 3 o.Runtime.rounds

let test_messages_to_crashed_are_dropped () =
  let g = Trees.path 2 in
  let o =
    Runtime.run ~faults:(Fault.create ~crashes:[ (1, 1) ] ()) ~rng_of
      (View.full g) (flood_program ~k:2 ~expect:1)
  in
  (* Node 0 sends 2 messages to node 1 (init + round 1); both arrive at or
     after the crash. Node 1 sends only its init broadcast. *)
  Alcotest.(check int) "delivered" 1 o.Runtime.messages;
  Alcotest.(check int) "dropped at the crashed node" 2 o.Runtime.dropped

(* --- delay ------------------------------------------------------------- *)

let test_delay_slows_flood () =
  let g = Trees.path 5 in
  (* With delay <= 2 every hop takes at most 3 rounds; k = 12 receives is
     enough for the 4-hop diameter worst case. *)
  let o =
    Runtime.run ~faults:(Fault.create ~seed:3 ~max_delay:2 ()) ~rng_of
      (View.full g) (flood_program ~k:12 ~expect:4)
  in
  Alcotest.(check bool) "everyone converged" true
    (Array.for_all (fun b -> b) o.Runtime.output);
  Alcotest.(check bool) "some deliveries were late" true
    (o.Runtime.delayed > 0);
  Alcotest.(check int) "nothing lost" 0 o.Runtime.dropped

(* --- robust wrappers --------------------------------------------------- *)

let test_robustify_identity_when_repeats_one () =
  let view = View.full (Helpers.random_tree ~seed:5 ~n:40) in
  let plan = Rand_plan.make 3 in
  let plain = Fairmis.Luby.run_distributed view plan in
  let wrapped = Fairmis.Robust.run_luby ~repeats:1 view plan in
  check_outcome_equal "repeats=1 is a no-op" plain wrapped

let test_robust_zero_fault_same_mis () =
  let view = View.full (Helpers.random_tree ~seed:6 ~n:60) in
  let plan = Rand_plan.make 4 in
  let plain = Fairmis.Luby.run_distributed view plan in
  let robust = Fairmis.Robust.run_luby view plan in
  Alcotest.check Helpers.bool_array "same MIS" plain.Runtime.output
    robust.Runtime.output;
  let plain_ft = Fairmis.Fair_tree_distributed.run view plan in
  let robust_ft = Fairmis.Robust.run_fair_tree view plan in
  Alcotest.check Helpers.bool_array "same FairTree MIS" plain_ft.Runtime.output
    robust_ft.Runtime.output

let test_robust_luby_survives_loss () =
  let view = View.full (Helpers.random_tree ~seed:8 ~n:120) in
  let valid = ref 0 in
  let trials = 12 in
  for i = 1 to trials do
    let plan = Rand_plan.make (100 + i) in
    let faults = Fault.create ~seed:i ~drop:0.05 () in
    let o = Fairmis.Robust.run_luby ~faults view plan in
    Alcotest.(check bool) (Printf.sprintf "trial %d decided" i) true
      (Array.for_all (fun b -> b) o.Runtime.decided);
    if Check.is_surviving_mis view ~crashed:o.Runtime.crashed o.Runtime.output
    then incr valid
  done;
  (* The unhardened program fails essentially always at this rate (see
     test below); the wrapper must recover a clear majority. *)
  Alcotest.(check bool)
    (Printf.sprintf "majority valid (%d/%d)" !valid trials)
    true
    (2 * !valid > trials)

let test_plain_luby_breaks_under_loss () =
  let view = View.full (Helpers.random_tree ~seed:8 ~n:120) in
  let stage = Rand_plan.Stage.luby_main in
  let broken = ref 0 in
  let trials = 8 in
  for i = 1 to trials do
    let plan = Rand_plan.make (100 + i) in
    let faults = Fault.create ~seed:i ~drop:0.05 () in
    let o =
      Runtime.run ~faults
        ~rng_of:(fun u -> Rand_plan.node_stream plan ~stage ~node:u)
        view
        (Fairmis.Luby.program plan ~stage)
    in
    if
      not
        (Check.is_surviving_mis view ~crashed:o.Runtime.crashed
           o.Runtime.output)
    then incr broken
  done;
  Alcotest.(check bool) "unhardened Luby degrades" true (!broken > 0)

let test_robust_timeout_forces_decision () =
  let view = View.full (Trees.star 20) in
  let plan = Rand_plan.make 2 in
  (* At 60% loss even re-broadcast stalls; the timeout must still force
     every node to a (possibly degraded) decision. *)
  let faults = Fault.create ~seed:1 ~drop:0.6 () in
  let o = Fairmis.Robust.run_luby ~repeats:2 ~timeout:6 ~faults view plan in
  Alcotest.(check bool) "all decided" true
    (Array.for_all (fun b -> b) o.Runtime.decided);
  Alcotest.(check bool) "bounded" true (o.Runtime.rounds <= 2 * 8)

let test_robust_fair_tree_under_loss () =
  let view = View.full (Helpers.random_tree ~seed:12 ~n:100) in
  let plan = Rand_plan.make 7 in
  let faults = Fault.create ~seed:2 ~drop:0.05 () in
  let o = Fairmis.Robust.run_fair_tree ~faults view plan in
  Alcotest.(check bool) "valid MIS under 5% loss" true
    (Check.is_surviving_mis view ~crashed:o.Runtime.crashed o.Runtime.output)

(* --- surviving-subgraph oracle ----------------------------------------- *)

let test_surviving_mis_oracle () =
  (* Path 0-1-2-3-4. *)
  let view = View.full (Trees.path 5) in
  let no_crash = Array.make 5 false in
  let crashed = [| false; false; true; false; false |] in
  (* {0, 4} is not maximal on the full path (2 uncovered) but is a valid
     MIS of the surviving subgraph 0-1 3-4 once node 2 crashes. *)
  let set = [| true; false; false; false; true |] in
  Alcotest.(check bool) "not maximal on the full graph" false
    (Check.is_surviving_mis view ~crashed:no_crash set);
  Alcotest.(check bool) "maximal on the survivors" true
    (Check.is_surviving_mis view ~crashed set);
  (* {1, 4} is an MIS of the full path, but if member 1 crashes its
     neighbors 0 and 2 lose their cover in the surviving subgraph. *)
  let full_mis = [| false; true; false; false; true |] in
  Alcotest.(check bool) "full-graph MIS" true
    (Check.is_surviving_mis view ~crashed:no_crash full_mis);
  Alcotest.(check bool) "crashed member uncovers its neighbors" false
    (Check.is_surviving_mis view
       ~crashed:[| false; true; false; false; false |]
       full_mis);
  Alcotest.check_raises "mask length"
    (Invalid_argument "Check.surviving_view: crashed mask length") (fun () ->
      ignore (Check.is_surviving_mis view ~crashed:[| false |] set))

(* Sequential greedy over the active nodes of a view: the reference MIS
   for the surviving-subgraph properties below. *)
let greedy_mis view =
  let n = View.n view in
  let set = Array.make n false in
  for u = 0 to n - 1 do
    if
      View.node_active view u
      && not (View.exists_adj view u (fun v -> set.(v)))
    then set.(u) <- true
  done;
  set

let arb_graph_and_crashes =
  QCheck.(
    pair
      (pair Helpers.arb_size Helpers.arb_seed)
      (pair (float_range 0. 1.) Helpers.arb_seed))

let graph_of ((n, gseed), (crash_p, cseed)) =
  let view = View.full (Helpers.random_graph ~seed:gseed ~n ~p:0.15) in
  let rng = Splitmix.of_seed (cseed + 0x5E1F) in
  let crashed =
    Array.init n (fun _ -> Splitmix.float rng < crash_p)
  in
  (view, crashed)

let prop_fresh_mis_of_survivors_passes_oracle =
  Helpers.qtest ~count:200 "greedy MIS of the surviving view passes the oracle"
    arb_graph_and_crashes
    (fun input ->
      let view, crashed = graph_of input in
      let set = greedy_mis (Check.surviving_view view ~crashed) in
      Check.is_surviving_mis view ~crashed set)

let prop_all_crashed_accepts_empty_set =
  Helpers.qtest ~count:50 "with every node crashed only the empty set remains"
    (QCheck.pair Helpers.arb_size Helpers.arb_seed)
    (fun (n, seed) ->
      let view = View.full (Helpers.random_graph ~seed ~n ~p:0.2) in
      let crashed = Array.make n true in
      (* Vacuously an MIS: no survivors to cover, none to conflict. *)
      Check.is_surviving_mis view ~crashed (Array.make n false))

let test_surviving_crashed_isolated_node () =
  (* 0-1 plus the isolated node 2; crashing 2 must not change what a
     valid MIS of the pair looks like, and a crashed isolated member is
     simply ignored by the surviving view. *)
  let view = View.full (Graph.of_edges ~n:3 [ (0, 1) ]) in
  let crashed = [| false; false; true |] in
  Alcotest.(check bool) "member pair valid without the crashed isolate" true
    (Check.is_surviving_mis view ~crashed [| true; false; false |]);
  Alcotest.(check bool) "empty set is not maximal for the survivors" false
    (Check.is_surviving_mis view ~crashed [| false; false; false |]);
  (* Not crashed: the isolated node must be covered, i.e. join. *)
  let no_crash = Array.make 3 false in
  Alcotest.(check bool) "alive isolate must join" false
    (Check.is_surviving_mis view ~crashed:no_crash [| true; false; false |]);
  Alcotest.(check bool) "alive isolate joined" true
    (Check.is_surviving_mis view ~crashed:no_crash [| true; false; true |])

let test_crash_run_serves_survivors () =
  let view = View.full (Helpers.random_tree ~seed:20 ~n:150) in
  let plan = Rand_plan.make 9 in
  (* Round-0 crashes: the dead nodes never participate, so the protocol
     runs on the surviving subgraph and must serve it a valid MIS. (A
     member crashing mid-announcement can legitimately leave neighbors
     uncovered — that degradation is measured by the faults experiment,
     not asserted here.) *)
  let faults = Fault.create ~seed:4 ~crashes:[ (3, 0); (40, 0); (90, 0) ] () in
  let o = Fairmis.Robust.run_luby ~faults view plan in
  Alcotest.(check int) "three crashes" 3 (mis_size o.Runtime.crashed);
  Alcotest.(check bool) "MIS of the surviving subgraph" true
    (Check.is_surviving_mis view ~crashed:o.Runtime.crashed o.Runtime.output)

(* --- plan validation --------------------------------------------------- *)

let test_plan_validation () =
  Alcotest.check_raises "drop > 1"
    (Invalid_argument "Fault.create: drop must be in [0, 1]") (fun () ->
      ignore (Fault.create ~drop:1.5 ()));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Fault.create: max_delay must be >= 0") (fun () ->
      ignore (Fault.create ~max_delay:(-1) ()));
  Alcotest.check_raises "negative crash round"
    (Invalid_argument "Fault.create: crash round must be >= 0") (fun () ->
      ignore (Fault.create ~crashes:[ (0, -1) ] ()));
  Alcotest.check_raises "negative crash node"
    (Invalid_argument "Fault.create: crash node must be >= 0") (fun () ->
      ignore (Fault.create ~crashes:[ (-3, 1) ] ()));
  Alcotest.check_raises "duplicate crash node"
    (Invalid_argument "Fault.create: node scheduled to crash twice")
    (fun () -> ignore (Fault.create ~crashes:[ (2, 1); (2, 4) ] ()));
  Alcotest.check_raises "crash out of range"
    (Invalid_argument "Fault.crash_rounds: node out of range") (fun () ->
      ignore
        (Runtime.run ~faults:(Fault.create ~crashes:[ (9, 1) ] ()) ~rng_of
           (View.full (Trees.path 3))
           (flood_program ~k:2 ~expect:2)))

let suite =
  [ ( "sim.fault",
      [ Alcotest.test_case "zero plan is none" `Quick test_zero_plan_is_none;
        Alcotest.test_case "zero-fault equivalence" `Quick
          test_zero_fault_equivalence;
        Alcotest.test_case "golden regression vs pre-fault runtime" `Quick
          test_golden_regression;
        Alcotest.test_case "faulty runs reproducible" `Quick
          test_faulty_run_reproducible;
        Alcotest.test_case "total drop" `Quick test_total_drop;
        Alcotest.test_case "drop accounting conservation" `Quick
          test_drop_accounting_sums;
        Alcotest.test_case "per-edge drop override" `Quick
          test_edge_drop_override;
        Alcotest.test_case "adversary targeted drop" `Quick
          test_adversary_targeted_drop;
        Alcotest.test_case "crash stop" `Quick test_crash_stop;
        Alcotest.test_case "crash at round zero" `Quick
          test_crash_at_round_zero_silences;
        Alcotest.test_case "crash does not stall termination" `Quick
          test_crash_terminates_run;
        Alcotest.test_case "messages to crashed nodes drop" `Quick
          test_messages_to_crashed_are_dropped;
        Alcotest.test_case "bounded delay" `Quick test_delay_slows_flood;
        Alcotest.test_case "plan validation" `Quick test_plan_validation ] );
    ( "core.robust",
      [ Alcotest.test_case "repeats=1 wrapper is a no-op" `Quick
          test_robustify_identity_when_repeats_one;
        Alcotest.test_case "zero-fault robust output unchanged" `Quick
          test_robust_zero_fault_same_mis;
        Alcotest.test_case "robust Luby survives 5% loss" `Quick
          test_robust_luby_survives_loss;
        Alcotest.test_case "plain Luby breaks under 5% loss" `Quick
          test_plain_luby_breaks_under_loss;
        Alcotest.test_case "timeout forces decisions" `Quick
          test_robust_timeout_forces_decision;
        Alcotest.test_case "robust FairTree under loss" `Quick
          test_robust_fair_tree_under_loss ] );
    ( "graph.check.surviving",
      [ Alcotest.test_case "surviving-subgraph oracle" `Quick
          test_surviving_mis_oracle;
        Alcotest.test_case "crashed isolated node" `Quick
          test_surviving_crashed_isolated_node;
        prop_fresh_mis_of_survivors_passes_oracle;
        prop_all_crashed_accepts_empty_set;
        Alcotest.test_case "crashy robust run serves survivors" `Quick
          test_crash_run_serves_survivors ] ) ]
