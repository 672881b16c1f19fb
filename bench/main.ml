(* Benchmark / reproduction harness.

   Usage:
     dune exec bench/main.exe            # every experiment, then timing
     dune exec bench/main.exe -- table1 fig4
     dune exec bench/main.exe -- timing  # Bechamel micro-benchmarks only
     dune exec bench/main.exe -- pool    # worker pool vs spawn-per-call engine
     dune exec bench/main.exe -- engine  # engine reuse vs per-trial rebuild
     dune exec bench/main.exe -- xl      # n = 1e5 / 1e6 single-run rows
     dune exec bench/main.exe -- list

   Environment: FAIRMIS_TRIALS, FAIRMIS_FULL, FAIRMIS_NYC, FAIRMIS_DOMAINS,
   FAIRMIS_SEED (see Mis_exp.Config).

   Besides the console report, a run writes BENCH_trace.json: the config,
   per-experiment wall-clock, and the timing estimates, machine-readable
   for CI archiving. *)

open Bechamel
open Toolkit

module View = Mis_graph.View
module Rand_plan = Fairmis.Rand_plan
module Metrics = Mis_obs.Metrics
module Json = Mis_obs.Json

(* Each test owns its seed counter, so the sequence of workloads a test
   measures is a function of that test alone — re-ordering, adding or
   removing tests cannot silently change what the others time. *)
let stage name f =
  let counter = ref 0 in
  let next_seed () =
    incr counter;
    !counter
  in
  Test.make ~name (Staged.stage (fun () -> f next_seed))

(* One Bechamel test per table/figure workload: the cost of a single
   simulated run of the relevant algorithm on the relevant topology. *)
let timing_tests () =
  let binary = lazy (View.full (Mis_workload.Trees.complete_kary ~branch:2 ~depth:10)) in
  let alt30 = lazy (View.full (Mis_workload.Trees.alternating ~branch:30 ~depth:3)) in
  let dartmouth = lazy (View.full (Mis_workload.Real_world.dartmouth_like ~seed:1)) in
  let star = lazy (View.full (Mis_workload.Trees.star 1024)) in
  let cone = lazy (View.full (Mis_workload.Special.cone ~k:64)) in
  let grid = lazy (View.full (Mis_workload.Bipartite.grid ~width:16 ~height:16)) in
  let trigrid = lazy (View.full (Mis_workload.Planar.triangular_grid ~width:18 ~height:18)) in
  let rooted =
    lazy
      (let g = Mis_workload.Trees.complete_kary ~branch:2 ~depth:8 in
       Mis_graph.Rooted.of_tree g ~root:0)
  in
  let sim_tree = lazy (View.full (Helpers_bench.random_tree 256)) in
  [ stage "table1/luby/binary-2047" (fun next_seed ->
        Fairmis.Luby.run (Lazy.force binary) (Rand_plan.make (next_seed ())));
    stage "table1/fairtree/binary-2047" (fun next_seed ->
        Fairmis.Fair_tree.run (Lazy.force binary) (Rand_plan.make (next_seed ())));
    stage "table1/luby/alt30-961" (fun next_seed ->
        Fairmis.Luby.run (Lazy.force alt30) (Rand_plan.make (next_seed ())));
    stage "table1/fairtree/alt30-961" (fun next_seed ->
        Fairmis.Fair_tree.run (Lazy.force alt30) (Rand_plan.make (next_seed ())));
    stage "fig4/luby/dartmouth-178" (fun next_seed ->
        Fairmis.Luby.run (Lazy.force dartmouth) (Rand_plan.make (next_seed ())));
    stage "fig4/fairtree/dartmouth-178" (fun next_seed ->
        Fairmis.Fair_tree.run (Lazy.force dartmouth) (Rand_plan.make (next_seed ())));
    stage "star/luby/star-1024" (fun next_seed ->
        Fairmis.Luby.run (Lazy.force star) (Rand_plan.make (next_seed ())));
    stage "cone/luby/cone-k64" (fun next_seed ->
        Fairmis.Luby.run (Lazy.force cone) (Rand_plan.make (next_seed ())));
    stage "rooted/fairrooted/binary-511" (fun next_seed ->
        Fairmis.Fair_rooted.run (Lazy.force rooted) (Rand_plan.make (next_seed ())));
    stage "bipart/fairbipart/grid-256" (fun next_seed ->
        Fairmis.Fair_bipart.run (Lazy.force grid) (Rand_plan.make (next_seed ())));
    stage "colormis/planar/trigrid-324" (fun next_seed ->
        fst (Fairmis.Color_mis.run_planar (Lazy.force trigrid) (Rand_plan.make (next_seed ()))));
    stage "rounds/luby-simulator/tree-256" (fun next_seed ->
        Fairmis.Luby.run_distributed (Lazy.force sim_tree) (Rand_plan.make (next_seed ()))) ]

(* Bechamel per-workload nanosecond estimates for a test list; the main
   timing run and the engine pair share the estimator setup. *)
let estimate_tests tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  List.map
    (fun test ->
      let name = Test.Elt.name (List.hd (Test.elements test)) in
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      let ns = ref None in
      Hashtbl.iter
        (fun _name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ v ] -> ns := Some v
          | _ -> ())
        analyzed;
      (name, !ns))
    tests

let print_estimates estimates =
  Mis_exp.Table.print
    ~header:[ "workload"; "ns/run"; "ms/run" ]
    (List.map
       (fun (name, ns) ->
         match ns with
         | Some v ->
           [ name; Printf.sprintf "%.0f" v; Printf.sprintf "%.3f" (v /. 1e6) ]
         | None -> [ name; "?"; "?" ])
       estimates);
  print_newline ()

let run_timing () =
  print_endline "== timing: one simulated run per table/figure workload";
  let estimates = estimate_tests (timing_tests ()) in
  print_estimates estimates;
  estimates

(* Worker-pool scaling: wall-clock of a fixed 1000-trial fairness
   workload (Luby on a 1000-node random tree) at 1 / 2 / 4 requested
   domains through the persistent pool, plus the retained
   spawn-per-call engine at 4 domains as the tax reference. Whole
   map-reduce invocations are the unit of work, so this is measured
   best-of-N with a plain clock rather than through Bechamel. The pool
   clamps active domains to the hardware (`FAIRMIS_POOL_CAP`), so the
   pooled domains-4 row measures what a caller actually gets: real
   parallel speedup on a multi-core host, serial parity on a 1-core one
   — never the old oversubscription collapse, which the spawn row
   reproduces on purpose. History entries record ns per trial;
   `bench-diff --only parallel/pool` hard-gates the pooled rows. *)
let run_pool_scaling () =
  print_endline
    "== parallel: 1000-trial fairness workload, worker pool vs spawn engine";
  let trials = 1000 and n = 1000 in
  let view = View.full (Helpers_bench.random_tree n) in
  let pool_work domains =
    let spec = { Mis_exp.Trials.trials; seed = 11; domains = Some domains } in
    ignore
      (Mis_exp.Trials.fairness spec ~n (fun acc ~seed ->
           Mis_obs.Fairness.record acc
             ~in_mis:(Fairmis.Luby.run view (Rand_plan.make seed))))
  in
  let spawn_work domains =
    (* the same fold, forced through the spawn-per-call reference
       engine: fresh domains every call, no hardware clamp *)
    ignore
      (Mis_stats.Parallel.map_reduce_unpooled ~domains ~tasks:trials
         ~init:(fun () -> Mis_obs.Fairness.create ~n)
         ~merge:(fun a b ->
           Mis_obs.Fairness.merge a b;
           a)
         (fun acc i ->
           Mis_obs.Fairness.record acc
             ~in_mis:(Fairmis.Luby.run view (Rand_plan.make (11 + i)))))
  in
  let time_best work domains =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      work domains;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let pooled = List.map (fun d -> (d, time_best pool_work d)) [ 1; 2; 4 ] in
  let spawn4 = time_best spawn_work 4 in
  Mis_stats.Parallel.shutdown ();
  let base = List.assoc 1 pooled in
  let ns_per_trial s = s *. 1e9 /. float_of_int trials in
  Mis_exp.Table.print
    ~header:[ "engine"; "domains"; "s/run"; "ns/trial"; "speedup" ]
    (List.map
       (fun (d, s) ->
         [ "pool"; string_of_int d; Printf.sprintf "%.3f" s;
           Printf.sprintf "%.0f" (ns_per_trial s);
           Printf.sprintf "%.2fx" (base /. s) ])
       pooled
    @ [ [ "spawn"; "4"; Printf.sprintf "%.3f" spawn4;
          Printf.sprintf "%.0f" (ns_per_trial spawn4);
          Printf.sprintf "%.2fx" (base /. spawn4) ] ]);
  Printf.printf "(pool cap %d on this host; pool holds %d worker(s))\n\n"
    (Mis_stats.Parallel.pool_cap ())
    (Mis_stats.Parallel.pool_size ());
  List.map
    (fun (d, s) ->
      ( Printf.sprintf "parallel/pool/fairness-n%d-trials%d/domains-%d" n
          trials d,
        Some (ns_per_trial s) ))
    pooled
  @ [ ( Printf.sprintf "parallel/spawn/fairness-n%d-trials%d/domains-4" n
          trials,
        Some (ns_per_trial spawn4) ) ]

(* engine/xl rows: single protocol runs at n = 10^5 and 10^6 on the
   compiled engine over direct-CSR attachment trees — the scale tier
   that motivated the pool (per-measurement spawn or rebuild overhead
   would drown the signal here). Build and run are reported separately:
   the build row prices `of_parents` + `Engine.create` (all O(n + m)
   array fills), the reuse row one full Luby execution on the prebuilt
   engine. Single-shot wall clock, best of 2 — at eight-plus seconds per
   10^6-node run, Bechamel's sampling would take minutes for no extra
   signal. `bench-diff --only engine/xl` hard-gates all four rows. *)
let run_xl_bench () =
  print_endline "== engine/xl: 1e5 / 1e6-node single runs on the compiled engine";
  let row n =
    let g = Mis_workload.Trees.random_attachment_xl (Mis_util.Splitmix.of_seed 97) ~n in
    let t0 = Unix.gettimeofday () in
    let eng = Mis_sim.Runtime.Engine.create (View.full g) in
    let build = Unix.gettimeofday () -. t0 in
    let best = ref infinity and rounds = ref 0 in
    for k = 1 to 2 do
      let t0 = Unix.gettimeofday () in
      let o = Fairmis.Luby.run_distributed_on eng (Rand_plan.make k) in
      let dt = Unix.gettimeofday () -. t0 in
      rounds := o.Mis_sim.Runtime.rounds;
      if dt < !best then best := dt
    done;
    ( n,
      build,
      !best,
      !rounds,
      [ (Printf.sprintf "engine/xl/build-n%d" n, Some (build *. 1e9));
        (Printf.sprintf "engine/xl/luby-n%d-reuse" n, Some (!best *. 1e9)) ] )
  in
  let rows = List.map row [ 100_000; 1_000_000 ] in
  Mis_exp.Table.print
    ~header:[ "n"; "build s"; "run s"; "rounds"; "ns/node/round" ]
    (List.map
       (fun (n, build, run, rounds, _) ->
         [ string_of_int n; Printf.sprintf "%.3f" build;
           Printf.sprintf "%.3f" run; string_of_int rounds;
           Printf.sprintf "%.1f"
             (run *. 1e9 /. float_of_int (n * max 1 rounds)) ])
       rows);
  print_newline ();
  List.concat_map (fun (_, _, _, _, r) -> r) rows

(* Compiled-engine rows: the same simulator workload through the
   per-trial-rebuild path (`Runtime.run`, which compiles the view every
   call — the pre-engine cost model) and through a prebuilt
   `Runtime.Engine` reused across trials. The single-run pair is measured
   with Bechamel; the 1000-trial pair is wall-clock over the `Trials`
   front end, where the reuse path builds one engine per domain-chunk via
   `fairness_ctx`. *)
let engine_timing_tests () =
  let view = lazy (View.full (Helpers_bench.random_tree 1000)) in
  let eng =
    lazy (Mis_sim.Runtime.Engine.create (Lazy.force view))
  in
  [ stage "engine/single-run/luby-n1000-rebuild" (fun next_seed ->
        Fairmis.Luby.run_distributed (Lazy.force view)
          (Rand_plan.make (next_seed ())));
    stage "engine/single-run/luby-n1000-reuse" (fun next_seed ->
        Fairmis.Luby.run_distributed_on (Lazy.force eng)
          (Rand_plan.make (next_seed ()))) ]

let run_engine_scaling () =
  print_endline
    "== engine: 1000-trial simulator fairness, engine reuse vs per-trial \
     rebuild";
  let trials = 1000 and n = 1000 in
  (* 250-trial chunks (vs the 16-trial scheduling default) so the
     per-chunk engine build is amortised the way a long sweep would see
     it; the rebuild path gets the same chunking, so the comparison stays
     apples-to-apples. *)
  let chunk = 250 in
  let view = View.full (Helpers_bench.random_tree n) in
  let work ~reuse domains =
    let spec = { Mis_exp.Trials.trials; seed = 11; domains = Some domains } in
    if reuse then
      ignore
        (Mis_exp.Trials.fairness_ctx ~chunk spec ~n
           ~ctx:(fun () -> Mis_sim.Runtime.Engine.create view)
           (fun eng acc ~seed ->
             let o = Fairmis.Luby.run_distributed_on eng (Rand_plan.make seed) in
             Mis_obs.Fairness.record acc ~in_mis:o.Mis_sim.Runtime.output))
    else
      ignore
        (Mis_exp.Trials.fairness ~chunk spec ~n (fun acc ~seed ->
             let o = Fairmis.Luby.run_distributed view (Rand_plan.make seed) in
             Mis_obs.Fairness.record acc ~in_mis:o.Mis_sim.Runtime.output))
  in
  let time_best ~reuse domains =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      work ~reuse domains;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let ns_per_trial s = s *. 1e9 /. float_of_int trials in
  let rows =
    List.concat_map
      (fun d ->
        let rebuild = time_best ~reuse:false d in
        let reuse = time_best ~reuse:true d in
        Mis_exp.Table.print
          ~header:[ "domains"; "path"; "s/run"; "ns/trial"; "speedup" ]
          [ [ string_of_int d; "rebuild"; Printf.sprintf "%.3f" rebuild;
              Printf.sprintf "%.0f" (ns_per_trial rebuild); "1.00x" ];
            [ string_of_int d; "reuse"; Printf.sprintf "%.3f" reuse;
              Printf.sprintf "%.0f" (ns_per_trial reuse);
              Printf.sprintf "%.2fx" (rebuild /. reuse) ] ];
        [ ( Printf.sprintf
              "engine/fairness-n%d-trials%d-rebuild/domains-%d" n trials d,
            Some (ns_per_trial rebuild) );
          ( Printf.sprintf "engine/fairness-n%d-trials%d/domains-%d" n trials d,
            Some (ns_per_trial reuse) ) ])
      [ 1; 4 ]
  in
  print_newline ();
  rows

let run_engine_bench () =
  print_endline "== engine: single simulated run, rebuild vs prebuilt engine";
  let estimates = estimate_tests (engine_timing_tests ()) in
  print_estimates estimates;
  estimates @ run_engine_scaling ()

(* Kernel-backend rows: the same n = 1000 single-run workload as the
   engine/single-run pair, executed by the data-parallel sweeps over a
   prebuilt [Mis_sim.Kernel] (Luby and the full FairTree stage
   pipeline), plus the 1000-trial fairness workload through the
   [Trials.fairness] front end on [Runners.luby] — one kernel compiled
   up front and shared by every pooled domain — at 1 and 4 domains. The
   printed vs-engine ratio is the backend's reason to exist — the
   single-run sweep must beat the message engine's prebuilt reuse row by
   >= 5x — and `bench-diff --only kernel/` hard-gates every kernel row
   against the committed baseline. *)
let kernel_timing_tests () =
  let view = lazy (View.full (Helpers_bench.random_tree 1000)) in
  let kern = lazy (Mis_sim.Kernel.create (Lazy.force view)) in
  [ stage "kernel/single-run/luby-n1000" (fun next_seed ->
        Fairmis.Luby.run_kernel_on (Lazy.force kern)
          (Rand_plan.make (next_seed ())));
    stage "kernel/single-run/fairtree-n1000" (fun next_seed ->
        Fairmis.Fair_tree_distributed.run_kernel_on (Lazy.force kern)
          (Rand_plan.make (next_seed ()))) ]

let run_kernel_scaling () =
  let trials = 1000 and n = 1000 in
  let chunk = 250 in
  let view = View.full (Helpers_bench.random_tree n) in
  let run = Mis_exp.Runners.luby.Mis_exp.Runners.run view in
  let work domains =
    let spec = { Mis_exp.Trials.trials; seed = 11; domains = Some domains } in
    ignore
      (Mis_exp.Trials.fairness ~chunk spec ~n (fun acc ~seed ->
           Mis_obs.Fairness.record acc ~in_mis:(run ~seed)))
  in
  let time_best domains =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      work domains;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let ns_per_trial s = s *. 1e9 /. float_of_int trials in
  let rows = List.map (fun d -> (d, time_best d)) [ 1; 4 ] in
  Mis_exp.Table.print
    ~header:[ "domains"; "s/run"; "ns/trial" ]
    (List.map
       (fun (d, s) ->
         [ string_of_int d; Printf.sprintf "%.3f" s;
           Printf.sprintf "%.0f" (ns_per_trial s) ])
       rows);
  print_newline ();
  List.map
    (fun (d, s) ->
      ( Printf.sprintf "kernel/fairness-n%d-trials%d/domains-%d" n trials d,
        Some (ns_per_trial s) ))
    rows

let run_kernel_bench () =
  print_endline
    "== kernel: data-parallel sweeps, single run + 1000-trial fairness";
  let estimates = estimate_tests (kernel_timing_tests ()) in
  (* The engine's prebuilt-reuse row, re-measured here rather than read
     from history so the ratio compares two numbers from the same host
     and the same run; it is printed, not returned — the kernel history
     entry carries only kernel/ rows. *)
  let engine_reuse =
    let view = lazy (View.full (Helpers_bench.random_tree 1000)) in
    let eng = lazy (Mis_sim.Runtime.Engine.create (Lazy.force view)) in
    estimate_tests
      [ stage "engine/single-run/luby-n1000-reuse" (fun next_seed ->
            Fairmis.Luby.run_distributed_on (Lazy.force eng)
              (Rand_plan.make (next_seed ()))) ]
  in
  print_estimates (estimates @ engine_reuse);
  (match (estimates, engine_reuse) with
  | (_, Some kernel_ns) :: _, [ (_, Some engine_ns) ] ->
    Printf.printf "kernel single-run speedup over engine reuse: %.1fx%s\n\n"
      (engine_ns /. kernel_ns)
      (if engine_ns /. kernel_ns >= 5. then "" else "  (below the 5x target!)")
  | _ -> ());
  estimates @ run_kernel_scaling ()

(* Dynamic-layer rows: mean wall-clock per churn batch served by the
   incremental maintainer, against a maintainer whose ladder starts (and
   ends) at Full_recompute. Both serve the identical pre-generated
   stream, so the pair isolates exactly what the dirty-neighborhood
   repair buys; like the engine pair, the ratio has a stable shape
   across hardware and `bench-diff --only churn/repair-batch` can gate
   the incremental row hard. *)
let run_churn_bench () =
  print_endline "== churn: incremental repair vs full recompute per batch";
  let params = { Mis_workload.Churn.default with Mis_workload.Churn.batches = 60 } in
  let stream =
    Mis_workload.Churn.generate (Mis_util.Splitmix.of_seed 11) params
  in
  let bootstrap, churn =
    match stream with b :: rest -> (b, rest) | [] -> assert false
  in
  let batches = float_of_int (List.length churn) in
  let serve ladder =
    let config = { Mis_dyn.Maintain.default_config with Mis_dyn.Maintain.ladder; seed = 5 } in
    let m =
      Mis_dyn.Maintain.create ~config
        ~capacity:params.Mis_workload.Churn.capacity ()
    in
    ignore (Mis_dyn.Maintain.apply_batch m bootstrap);
    let t0 = Unix.gettimeofday () in
    List.iter (fun b -> ignore (Mis_dyn.Maintain.apply_batch m b)) churn;
    (Unix.gettimeofday () -. t0) /. batches
  in
  let best ladder =
    let best = ref infinity in
    for _ = 1 to 3 do
      let dt = serve ladder in
      if dt < !best then best := dt
    done;
    !best
  in
  let incremental = best Mis_dyn.Maintain.default_config.Mis_dyn.Maintain.ladder in
  let full = best [ Mis_dyn.Maintain.Full_recompute ] in
  Mis_exp.Table.print
    ~header:[ "path"; "ms/batch"; "speedup" ]
    [ [ "incremental"; Printf.sprintf "%.3f" (incremental *. 1e3);
        Printf.sprintf "%.2fx" (full /. incremental) ];
      [ "full recompute"; Printf.sprintf "%.3f" (full *. 1e3); "1.00x" ] ];
  print_newline ();
  [ ("churn/repair-batch/campus-512", Some (incremental *. 1e9));
    ("churn/repair-batch-full/campus-512", Some (full *. 1e9)) ]

(* Telemetry-overhead rows: the compiled-engine hot path (single
   simulated run on a prebuilt engine) with the live-telemetry stack off
   vs on. "On" means the full serving posture: a metrics registry with
   the runtime-totals collector, a flight recorder, and the HTTP exposer
   polling its listen socket on a background domain while the workload
   runs. The engine itself never touches the telemetry lock, so the pair
   should be within noise of each other — the printed overhead ratio is
   the ISSUE's < 2% claim, and `bench-diff --only telemetry/single-run`
   gates both rows against the committed baseline. A third row prices one
   Sketch.add, the only per-observation cost the serve loop pays. *)
let run_telemetry_bench () =
  print_endline "== telemetry: engine hot path, live telemetry off vs on";
  let view = lazy (View.full (Helpers_bench.random_tree 1000)) in
  let eng = lazy (Mis_sim.Runtime.Engine.create (Lazy.force view)) in
  let run next_seed =
    Fairmis.Luby.run_distributed_on (Lazy.force eng)
      (Rand_plan.make (next_seed ()))
  in
  let off_est =
    estimate_tests [ stage "telemetry/single-run/luby-n1000-off" run ]
  in
  let reg = Mis_obs.Metrics.create () in
  let telemetry = Mis_obs.Telemetry.create reg in
  Mis_obs.Telemetry.add_collector telemetry Mis_sim.Runtime.collect_totals;
  let server = Mis_obs.Telemetry.Http.start ~port:0 telemetry in
  let on_est =
    Fun.protect
      ~finally:(fun () -> Mis_obs.Telemetry.Http.stop server)
      (fun () ->
        estimate_tests [ stage "telemetry/single-run/luby-n1000-on" run ])
  in
  let sketch = Mis_obs.Metrics.sketch reg "bench.lat" in
  let sketch_est =
    estimate_tests
      [ stage "telemetry/sketch-add/p001" (fun next_seed ->
            Mis_obs.Sketch.add sketch
              (float_of_int (next_seed () land 1023) +. 1.)) ]
  in
  let estimates = off_est @ on_est @ sketch_est in
  print_estimates estimates;
  (match (off_est, on_est) with
  | [ (_, Some off) ], [ (_, Some on) ] ->
    Printf.printf "telemetry-on overhead: %+.2f%%\n\n"
      (100. *. ((on /. off) -. 1.))
  | _ -> ());
  estimates

(* Causal-analyzer rows: replaying a 1000-node Luby trace vs replaying
   plus critical-path reconstruction. `Causal.analyze` without a
   precomputed summary runs the full replay itself, so the pair isolates
   exactly what the analyzer adds — the ISSUE's < 5% overhead claim, and
   `bench-diff --only causal/` gates both rows against the committed
   baseline. The trace is generated once and shared; both stages are
   pure over the event list. *)
let run_causal_bench () =
  print_endline "== causal: trace replay vs replay + critical-path analysis";
  let events =
    lazy
      (let view = View.full (Helpers_bench.random_tree 1000) in
       let sink, events = Mis_obs.Trace.memory ~capacity:(1 lsl 21) () in
       ignore (Fairmis.Luby.run_distributed ~tracer:sink view (Rand_plan.make 7));
       events ())
  in
  let replay_est =
    estimate_tests
      [ stage "causal/replay-n1000" (fun _ ->
            match Mis_obs.Replay.replay (Lazy.force events) with
            | Ok _ -> ()
            | Error _ -> assert false) ]
  in
  let analyze_est =
    estimate_tests
      [ stage "causal/analyze-n1000" (fun _ ->
            match Mis_obs.Causal.analyze (Lazy.force events) with
            | Ok _ -> ()
            | Error _ -> assert false) ]
  in
  let estimates = replay_est @ analyze_est in
  print_estimates estimates;
  (* The headline overhead number comes from a paired measurement: each
     sample times one block of plain replays immediately followed by one
     block of analyses and records the ratio, and the median ratio is
     reported. Two sequential bechamel estimates would bill machine-wide
     drift (thermal or cgroup throttling) to whichever stage ran second,
     and with the analyzer's marginal cost in the low percent even
     interleaved absolute times are dominated by how major-GC slices
     happen to align with the stages; adjacent-block ratios cancel
     both. *)
  let evs = Lazy.force events in
  let block f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 20 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Unix.gettimeofday () -. t0
  in
  Gc.compact ();
  let ratios = ref [] in
  for _ = 1 to 25 do
    let r = block (fun () -> Mis_obs.Replay.replay evs) in
    let a = block (fun () -> Mis_obs.Causal.analyze evs) in
    ratios := (a /. r) :: !ratios
  done;
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  Printf.printf "critical-path analysis overhead over plain replay: %+.2f%%\n\n"
    (100. *. (median !ratios -. 1.));
  estimates

let run_experiment ~metrics cfg id =
  match Mis_exp.Registry.find id with
  | Some e ->
    Printf.printf "# [%s] %s (%s)\n\n" e.Mis_exp.Registry.id
      e.Mis_exp.Registry.title e.Mis_exp.Registry.paper_ref;
    Metrics.time
      (Metrics.timer metrics ("experiment." ^ id))
      (fun () -> e.Mis_exp.Registry.run cfg)
  | None ->
    Printf.eprintf "unknown experiment %S; known: %s, timing\n" id
      (String.concat ", " (Mis_exp.Registry.ids ()));
    exit 2

let trace_path = "BENCH_trace.json"
let history_path = "BENCH_history.jsonl"

(* Timing runs also append a schema-versioned history entry, the input
   to `fairmis_cli bench-diff` regression tracking. *)
let append_history ~cfg timing =
  if timing <> [] then begin
    let entry =
      Mis_obs.Bench_history.make ~timestamp:(Unix.time ())
        ~config:(Mis_exp.Config.describe cfg)
        (List.map
           (fun (name, ns) ->
             { Mis_obs.Bench_history.workload = name; ns_per_run = ns })
           timing)
    in
    Mis_obs.Bench_history.append ~path:history_path entry;
    Printf.printf "bench history appended to %s\n" history_path
  end

let write_bench_trace ~cfg ~timing metrics =
  let snap = Metrics.snapshot metrics in
  let timing_json =
    Json.arr
      (List.map
         (fun (name, ns) ->
           Json.obj
             [ ("workload", Json.str name);
               ( "ns_per_run",
                 match ns with Some v -> Json.float v | None -> Json.null )
             ])
         timing)
  in
  let json =
    Json.obj
      [ ("config", Json.str (Mis_exp.Config.describe cfg));
        ("metrics", Metrics.to_json snap);
        ("timing", timing_json) ]
  in
  let oc = open_out trace_path in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "bench trace written to %s\n" trace_path

let () =
  let cfg = Mis_exp.Config.load () in
  let metrics = Metrics.create () in
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "list" ] ->
    List.iter
      (fun e ->
        Printf.printf "%-10s %s (%s)\n" e.Mis_exp.Registry.id
          e.Mis_exp.Registry.title e.Mis_exp.Registry.paper_ref)
      Mis_exp.Registry.all;
    print_endline "timing     Bechamel micro-benchmarks";
    print_endline "pool       1000-trial fairness: worker pool vs spawn engine";
    print_endline "engine     compiled-engine reuse vs per-trial rebuild";
    print_endline "kernel     data-parallel sweeps vs the message engine";
    print_endline "xl         single runs at n = 1e5 / 1e6 on the compiled engine";
    print_endline "dyn        incremental repair vs full recompute per batch";
    print_endline "telemetry  engine hot path with live telemetry off vs on";
    print_endline "causal     trace replay vs replay + critical-path analysis"
  | [] | [ "all" ] ->
    Printf.printf "fairmis bench — %s\n\n" (Mis_exp.Config.describe cfg);
    List.iter
      (fun e -> run_experiment ~metrics cfg e.Mis_exp.Registry.id)
      Mis_exp.Registry.all;
    let timing = run_timing () in
    let timing =
      timing @ run_pool_scaling () @ run_engine_bench ()
      @ run_kernel_bench () @ run_xl_bench ()
      @ run_churn_bench () @ run_telemetry_bench () @ run_causal_bench ()
    in
    append_history ~cfg timing;
    write_bench_trace ~cfg ~timing metrics;
    Mis_obs.Prof.print_report stderr
  | ids ->
    let timing = ref [] in
    List.iter
      (fun id ->
        if id = "timing" then begin
          let t = run_timing () in
          timing := !timing @ t @ run_pool_scaling ()
        end
        else if id = "pool" then timing := !timing @ run_pool_scaling ()
        else if id = "engine" then timing := !timing @ run_engine_bench ()
        else if id = "kernel" then timing := !timing @ run_kernel_bench ()
        else if id = "xl" then timing := !timing @ run_xl_bench ()
        else if id = "dyn" then timing := !timing @ run_churn_bench ()
        else if id = "telemetry" then
          timing := !timing @ run_telemetry_bench ()
        else if id = "causal" then timing := !timing @ run_causal_bench ()
        else run_experiment ~metrics cfg id)
      ids;
    append_history ~cfg !timing;
    write_bench_trace ~cfg ~timing:!timing metrics;
    Mis_obs.Prof.print_report stderr
