(* Tests for the statistics layer. *)

module Empirical = Mis_stats.Empirical
module Montecarlo = Mis_stats.Montecarlo
module Parallel = Mis_stats.Parallel
module View = Mis_graph.View
module Luby = Fairmis.Luby
module Rand_plan = Fairmis.Rand_plan

let sample = Empirical.create ~nodes:[| 0; 1; 2; 3 |] ~trials:10
    ~joins:[| 5; 10; 2; 5 |]

let test_frequencies () =
  Alcotest.(check (float 1e-9)) "freq 0" 0.5 (Empirical.frequency sample 0);
  Alcotest.(check (float 1e-9)) "min" 0.2 (Empirical.min_frequency sample);
  Alcotest.(check (float 1e-9)) "max" 1.0 (Empirical.summarize sample).Empirical.max_freq;
  Alcotest.(check (float 1e-9)) "mean" 0.55 (Empirical.summarize sample).Empirical.mean_freq

let test_inequality_factor () =
  Alcotest.(check (float 1e-9)) "factor" 5.0 (Empirical.inequality_factor sample);
  let zero = Empirical.create ~nodes:[| 0; 1 |] ~trials:4 ~joins:[| 0; 4 |] in
  Alcotest.(check bool) "zero gives infinity" true
    (Empirical.inequality_factor zero = infinity)

let test_cdf () =
  let points = Empirical.cdf sample in
  (* Frequencies 0.2, 0.5, 0.5, 1.0 -> (0.2,0.25) (0.5,0.75) (1.0,1.0). *)
  Alcotest.(check int) "points" 3 (Array.length points);
  let x, y = points.(1) in
  Alcotest.(check (float 1e-9)) "x" 0.5 x;
  Alcotest.(check (float 1e-9)) "y" 0.75 y;
  let _, last = points.(2) in
  Alcotest.(check (float 1e-9)) "ends at 1" 1.0 last

let test_cdf_monotone () =
  let points = Empirical.cdf sample in
  for i = 1 to Array.length points - 1 do
    let x0, y0 = points.(i - 1) and x1, y1 = points.(i) in
    if not (x1 > x0 && y1 > y0) then Alcotest.fail "cdf not monotone"
  done

let test_quantile () =
  Alcotest.(check (float 1e-9)) "median" 0.5 (Empirical.quantile sample 0.5);
  Alcotest.(check (float 1e-9)) "min" 0.2 (Empirical.quantile sample 0.);
  Alcotest.(check (float 1e-9)) "max" 1.0 (Empirical.quantile sample 1.)

let test_wilson () =
  let lo, hi = Helpers.wilson_interval ~count:50 ~trials:100 ~z:1.96 in
  Alcotest.(check bool) "contains p" true (lo < 0.5 && 0.5 < hi);
  Alcotest.(check bool) "reasonable width" true (hi -. lo < 0.25);
  let lo0, _ = Helpers.wilson_interval ~count:0 ~trials:100 ~z:1.96 in
  Alcotest.(check (float 1e-9)) "zero count lower bound" 0. lo0

let test_summary () =
  let s = Empirical.summarize sample in
  Alcotest.(check int) "nodes" 4 s.Empirical.nodes;
  Alcotest.(check (float 1e-9)) "factor" 5.0 s.Empirical.factor

let test_of_mask () =
  let acc = Mis_obs.Fairness.create ~n:3 in
  for run = 1 to 10 do
    Mis_obs.Fairness.record acc ~in_mis:[| run <= 1; run <= 9; run <= 3 |]
  done;
  let e = Empirical.of_fairness ~mask:[| true; false; true |] acc in
  Alcotest.(check int) "two nodes" 2 (Empirical.node_count e);
  Alcotest.(check (float 1e-9)) "max is node 2" 0.3 (Empirical.summarize e).Empirical.max_freq

let test_create_validation () =
  Alcotest.(check bool) "bad join count" true
    (match Empirical.create ~nodes:[| 0 |] ~trials:5 ~joins:[| 7 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Joint statistics *)

module Joint = Mis_stats.Joint

let test_joint_basic () =
  let j = Joint.create ~pairs:[| (0, 1); (0, 2) |] in
  Joint.record j [| true; true; false |];
  Joint.record j [| true; false; true |];
  Joint.record j [| false; false; false |];
  Joint.record j [| true; true; true |];
  Alcotest.(check int) "trials" 4 (Joint.trials j);
  Alcotest.(check (float 1e-9)) "P(both) pair 0" 0.5 (Joint.joint_probability j 0);
  let p0, p1 = Joint.marginals j 0 in
  Alcotest.(check (float 1e-9)) "P(u)" 0.75 p0;
  Alcotest.(check (float 1e-9)) "P(v)" 0.5 p1

let test_joint_correlation_signs () =
  (* Perfectly correlated pair and perfectly anti-correlated pair. *)
  let j = Joint.create ~pairs:[| (0, 1); (0, 2) |] in
  Joint.record j [| true; true; false |];
  Joint.record j [| false; false; true |];
  Joint.record j [| true; true; false |];
  Joint.record j [| false; false; true |];
  Alcotest.(check (float 1e-9)) "corr +1" 1.0 (Joint.correlation j 0);
  Alcotest.(check (float 1e-9)) "corr -1" (-1.0) (Joint.correlation j 1)

let test_joint_merge () =
  let record_all j masks = List.iter (Joint.record j) masks in
  let pairs = [| (0, 1); (1, 2) |] in
  let masks =
    [ [| true; true; false |]; [| true; false; true |];
      [| false; true; true |]; [| true; true; true |] ]
  in
  let whole = Joint.create ~pairs in
  record_all whole masks;
  let a = Joint.create ~pairs and b = Joint.create ~pairs in
  record_all a [ List.nth masks 0; List.nth masks 1 ];
  record_all b [ List.nth masks 2; List.nth masks 3 ];
  Joint.merge ~into:a b;
  Alcotest.(check int) "trials" (Joint.trials whole) (Joint.trials a);
  List.iter
    (fun i ->
      Alcotest.(check (float 1e-9)) "joint p"
        (Joint.joint_probability whole i)
        (Joint.joint_probability a i);
      Alcotest.(check (float 1e-9)) "correlation" (Joint.correlation whole i)
        (Joint.correlation a i))
    [ 0; 1 ];
  let other = Joint.create ~pairs:[| (0, 2) |] in
  Alcotest.(check bool) "pair mismatch refused" true
    (match Joint.merge ~into:a other with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_joint_degenerate () =
  let j = Joint.create ~pairs:[| (0, 1) |] in
  Joint.record j [| true; true |];
  Joint.record j [| true; false |];
  Alcotest.(check bool) "nan on degenerate marginal" true
    (Float.is_nan (Joint.correlation j 0))

let test_joint_independent_near_zero () =
  (* Two nodes of two disjoint edges under Luby are independent. *)
  let g = Mis_graph.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let view = View.full g in
  let j = Joint.create ~pairs:[| (0, 2) |] in
  for seed = 0 to 3999 do
    Joint.record j (Luby.run view (Rand_plan.make seed))
  done;
  Alcotest.(check bool) "correlation near zero" true
    (abs_float (Joint.correlation j 0) < 0.05)

(* Parallel *)

let test_map_reduce_sum () =
  let total =
    Parallel.map_reduce ~domains:4 ~tasks:1000
      ~init:(fun () -> ref 0)
      ~merge:(fun a b -> a := !a + !b; a)
      (fun acc i -> acc := !acc + i)
  in
  Alcotest.(check int) "sum" (999 * 1000 / 2) !total

let test_map_reduce_single_domain () =
  let total =
    Parallel.map_reduce ~domains:1 ~tasks:100
      ~init:(fun () -> ref 0)
      ~merge:(fun a b -> a := !a + !b; a)
      (fun acc i -> acc := !acc + i)
  in
  Alcotest.(check int) "sum" 4950 !total

let test_map_reduce_zero_tasks () =
  let v =
    Parallel.map_reduce ~domains:3 ~tasks:0
      ~init:(fun () -> ref 42)
      ~merge:(fun a _ -> a)
      (fun _ _ -> ())
  in
  Alcotest.(check int) "init only" 42 !v

(* Montecarlo *)

let tree = Helpers.random_tree ~seed:8 ~n:40
let view = View.full tree

let run_luby ~seed = Luby.run view (Rand_plan.make seed)

let test_montecarlo_deterministic_across_domains () =
  let cfg trials domains =
    { Montecarlo.trials; base_seed = 100; domains = Some domains }
  in
  let joins domains =
    Mis_obs.Fairness.joins (Montecarlo.run (cfg 200 domains) ~n:40 run_luby)
  in
  let serial = joins 1 in
  List.iter
    (fun domains ->
      let parallel = joins domains in
      Alcotest.check Helpers.int_array
        (Printf.sprintf "counts identical at %d domains" domains)
        serial parallel)
    [ 2; 3; 4; 8 ]

let test_montecarlo_check_runs () =
  let calls = Atomic.make 0 in
  let cfg = { Montecarlo.trials = 50; base_seed = 0; domains = Some 2 } in
  let _ =
    Montecarlo.run ~check:(fun _ -> Atomic.incr calls) cfg ~n:40 run_luby
  in
  Alcotest.(check int) "check per trial" 50 (Atomic.get calls)

(* A view with no nodes still runs its trials and yields empty counts. *)
let test_montecarlo_empty () =
  let cfg = { Montecarlo.trials = 3; base_seed = 0; domains = Some 2 } in
  let acc = Montecarlo.run cfg ~n:0 (fun ~seed:_ -> [||]) in
  Alcotest.check Helpers.int_array "no counts" [||] (Mis_obs.Fairness.joins acc);
  Alcotest.(check int) "runs" 3 (Mis_obs.Fairness.runs acc)

let test_montecarlo_estimate () =
  let cfg = { Montecarlo.trials = 300; base_seed = 5; domains = Some 2 } in
  let e = Montecarlo.estimate cfg view run_luby in
  Alcotest.(check int) "nodes" 40 (Empirical.node_count e);
  (* Every node of a tree joins a Luby MIS with decent probability. *)
  Alcotest.(check bool) "min freq positive" true (Empirical.min_frequency e > 0.)

let suite =
  [ ( "stats.empirical",
      [ Alcotest.test_case "frequencies" `Quick test_frequencies;
        Alcotest.test_case "inequality factor" `Quick test_inequality_factor;
        Alcotest.test_case "cdf" `Quick test_cdf;
        Alcotest.test_case "cdf monotone" `Quick test_cdf_monotone;
        Alcotest.test_case "quantile" `Quick test_quantile;
        Alcotest.test_case "wilson interval" `Quick test_wilson;
        Alcotest.test_case "summary" `Quick test_summary;
        Alcotest.test_case "of_mask" `Quick test_of_mask;
        Alcotest.test_case "create validation" `Quick test_create_validation ] );
    ( "stats.joint",
      [ Alcotest.test_case "basic counts" `Quick test_joint_basic;
        Alcotest.test_case "correlation signs" `Quick test_joint_correlation_signs;
        Alcotest.test_case "merge" `Quick test_joint_merge;
        Alcotest.test_case "degenerate marginal" `Quick test_joint_degenerate;
        Alcotest.test_case "independent near zero" `Slow
          test_joint_independent_near_zero ] );
    ( "stats.parallel",
      [ Alcotest.test_case "map_reduce sum" `Quick test_map_reduce_sum;
        Alcotest.test_case "single domain" `Quick test_map_reduce_single_domain;
        Alcotest.test_case "zero tasks" `Quick test_map_reduce_zero_tasks ] );
    ( "stats.montecarlo",
      [ Alcotest.test_case "deterministic across domains" `Quick
          test_montecarlo_deterministic_across_domains;
        Alcotest.test_case "check runs per trial" `Quick test_montecarlo_check_runs;
        Alcotest.test_case "empty view, empty counts" `Quick test_montecarlo_empty;
        Alcotest.test_case "estimate" `Quick test_montecarlo_estimate ] ) ]
