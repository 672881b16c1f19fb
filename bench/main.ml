(* Benchmark / reproduction harness.

   Usage:
     dune exec bench/main.exe            # every experiment, timing, every gate
     dune exec bench/main.exe -- table1 fig4
     dune exec bench/main.exe -- timing  # one run per table/figure workload
     dune exec bench/main.exe -- pool engine kernel xl dyn telemetry causal workload
     dune exec bench/main.exe -- list

   Environment: FAIRMIS_TRIALS, FAIRMIS_FULL, FAIRMIS_NYC, FAIRMIS_DOMAINS,
   FAIRMIS_SEED (see Mis_exp.Config).

   Every performance claim the harness makes is a gate: a ratio of two
   workloads measured in the same run, in adjacent blocks, k times over.
   A gate fails when its lower quartile is above its bound, and the run
   then exits 1. Besides the console report, a run writes
   BENCH_trace.json: the config, per-experiment wall-clock, the timing
   rows and the gate rows, machine-readable for CI archiving. *)

module View = Mis_graph.View
module Rand_plan = Fairmis.Rand_plan
module Engine = Mis_sim.Runtime.Engine
module Metrics = Mis_obs.Metrics
module Json = Mis_obs.Json

(* --- block clock -------------------------------------------------------- *)

(* A side of a measurement: given a repetition count, the wall-clock
   seconds one block of that many repetitions takes. *)
let block f reps =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  Unix.gettimeofday () -. t0

(* Each workload owns its seed counter, so the sequence of runs it times
   is a function of that workload alone. *)
let seeded f =
  let counter = ref 0 in
  fun () ->
    incr counter;
    f (Rand_plan.make !counter)

(* Repetitions double until the slowest side's block takes 20 ms, long
   enough to swamp clock resolution on any workload; the calibration
   blocks double as warm-up. *)
let calibrate sides =
  let rec go reps =
    if List.exists (fun side -> side reps >= 0.020) sides then reps
    else go (2 * reps)
  in
  go 1

let quartiles samples =
  let a = Array.copy samples in
  Array.sort compare a;
  let at q = a.(Float.to_int (Float.round (q *. float_of_int (Array.length a - 1)))) in
  (at 0.25, at 0.5, at 0.75)

(* Median seconds per repetition of one ungated workload, over 9 blocks. *)
let per_rep side =
  let reps = calibrate [ side ] in
  let _, median, _ = quartiles (Array.init 9 (fun _ -> side reps)) in
  median /. float_of_int reps

type gate = {
  name : string;
  median : float;
  q1 : float;
  q3 : float;
  bound : float;
  num_ms : float;  (** median ms per repetition, numerator side *)
  den_ms : float;
}

let passes g = g.q1 <= g.bound

(* The gate helper: k samples of numerator-block ÷ adjacent
   denominator-block, alternating which side runs first so neither is
   billed for drift (thermal or cgroup throttling, GC slices) that lands
   on the second slot. Ratios of adjacent blocks cancel what sequential
   estimates cannot, so the bound needs no noise allowance beyond taking
   the lower quartile. *)
let paired ?(k = 21) name ~bound num den =
  let reps = calibrate [ num; den ] in
  Gc.compact ();
  let nums = Array.make k 0. and dens = Array.make k 0. in
  for i = 0 to k - 1 do
    if i land 1 = 0 then begin
      nums.(i) <- num reps;
      dens.(i) <- den reps
    end
    else begin
      dens.(i) <- den reps;
      nums.(i) <- num reps
    end
  done;
  let q1, median, q3 = quartiles (Array.map2 ( /. ) nums dens) in
  let ms side =
    let _, m, _ = quartiles side in
    m *. 1e3 /. float_of_int reps
  in
  { name; median; q1; q3; bound; num_ms = ms nums; den_ms = ms dens }

let print_gates gates =
  Mis_exp.Table.print
    ~header:
      [ "gate (numerator ÷ denominator)"; "median"; "Q1"; "Q3"; "bound";
        "verdict"; "num ms"; "den ms" ]
    (List.map
       (fun g ->
         [ g.name; Printf.sprintf "%.3f" g.median; Printf.sprintf "%.3f" g.q1;
           Printf.sprintf "%.3f" g.q3; Printf.sprintf "%.2f" g.bound;
           (if passes g then "ok" else "FAIL");
           Printf.sprintf "%.3f" g.num_ms; Printf.sprintf "%.3f" g.den_ms ])
       gates);
  print_newline ();
  gates

(* --- timing: ungated, one run per table/figure workload ----------------- *)

let run_timing () =
  print_endline "== timing: one simulated run per table/figure workload";
  (* Luby and FairTree rows run on one kernel compiled per view, as the
     experiments run them; the compile falls in calibration, not in the
     timed samples. *)
  let kernel g = Mis_sim.Kernel.create (View.full g) in
  let binary = lazy (kernel (Mis_workload.Trees.complete_kary ~branch:2 ~depth:10)) in
  let alt30 = lazy (kernel (Mis_workload.Trees.alternating ~branch:30 ~depth:3)) in
  let dartmouth = lazy (kernel (Mis_workload.Real_world.dartmouth_like ~seed:1)) in
  let star = lazy (kernel (Mis_workload.Trees.star 1024)) in
  let cone = lazy (kernel (Mis_workload.Special.cone ~k:64)) in
  let grid = lazy (View.full (Mis_workload.Bipartite.grid ~width:16 ~height:16)) in
  let trigrid = lazy (View.full (Mis_workload.Planar.triangular_grid ~width:18 ~height:18)) in
  let rooted =
    lazy
      (let g = Mis_workload.Trees.complete_kary ~branch:2 ~depth:8 in
       Mis_graph.Rooted.of_tree g ~root:0)
  in
  let sim_tree = lazy (View.full (Helpers_bench.random_tree 256)) in
  let on input run = seeded (fun plan -> ignore (run (Lazy.force input) plan)) in
  let luby = Fairmis.Luby.run_kernel_on
  and fair_tree = Fairmis.Fair_tree_distributed.run_kernel_on in
  let rows =
    List.map
      (fun (name, f) -> (name, per_rep (block f) *. 1e9))
      [ ("table1/luby/binary-2047", on binary luby);
        ("table1/fairtree/binary-2047", on binary fair_tree);
        ("table1/luby/alt30-961", on alt30 luby);
        ("table1/fairtree/alt30-961", on alt30 fair_tree);
        ("fig4/luby/dartmouth-178", on dartmouth luby);
        ("fig4/fairtree/dartmouth-178", on dartmouth fair_tree);
        ("star/luby/star-1024", on star luby);
        ("cone/luby/cone-k64", on cone luby);
        ("rooted/fairrooted/binary-511", on rooted Fairmis.Fair_rooted.run);
        ("bipart/fairbipart/grid-256", on grid Fairmis.Fair_bipart.run);
        ( "colormis/planar/trigrid-324",
          on trigrid (fun v p -> fst (Fairmis.Color_mis.run_planar v p)) );
        ("rounds/luby-simulator/tree-256", on sim_tree Fairmis.Luby.run_distributed) ]
  in
  Mis_exp.Table.print
    ~header:[ "workload"; "ns/run"; "ms/run" ]
    (List.map
       (fun (name, ns) ->
         [ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.3f" (ns /. 1e6) ])
       rows);
  print_newline ();
  rows

(* --- gated sections ----------------------------------------------------- *)

(* Worker pool: the 1000-trial Luby fairness workload the experiments
   run (one kernel compiled up front and shared by every domain), as 50
   harness calls of 20 trials each: experiments call the harness once
   per cell, so what the pool saves is the fresh domains a cold engine
   starts on every call. Warm pool at 4 vs 1 requested domains, and warm
   vs cold at 4. The pool clamps active domains to the hardware, so
   domains 4 must never show the oversubscription collapse. The cold side
   raises the cap to 4 and shuts the pool down after every call, so each
   call spawns and joins three fresh domains, unclamped, 50 times per
   block. *)
let run_pool_scaling () =
  print_endline
    "== parallel: 1000-trial fairness workload in 50 calls, warm pool vs \
     cold pool";
  let calls = 50 and per_call = 20 and n = 1000 in
  let run = Mis_exp.Runners.luby.Mis_exp.Runners.run (View.full (Helpers_bench.random_tree n)) in
  let base c = 11 + (c * per_call) in
  let call domains c =
    Mis_stats.Montecarlo.run
      { Mis_stats.Montecarlo.trials = per_call; base_seed = base c;
        domains = Some domains }
      ~n run
  in
  let pooled domains =
    block (fun () ->
        for c = 0 to calls - 1 do
          ignore (Sys.opaque_identity (call domains c))
        done)
  in
  let cold4 =
    block (fun () ->
        let cap = Sys.getenv_opt "FAIRMIS_POOL_CAP" in
        Unix.putenv "FAIRMIS_POOL_CAP" "4";
        Fun.protect
          ~finally:(fun () ->
            (* putenv cannot unset; an empty value reads as unset *)
            Unix.putenv "FAIRMIS_POOL_CAP" (Option.value cap ~default:""))
          (fun () ->
            for c = 0 to calls - 1 do
              ignore (Sys.opaque_identity (call 4 c));
              Mis_stats.Parallel.shutdown ()
            done))
  in
  let gates =
    [ paired "parallel/pool/domains-4 ÷ parallel/pool/domains-1" ~bound:1.25
        (pooled 4) (pooled 1);
      paired "parallel/pool/domains-4 ÷ parallel/cold-pool/domains-4"
        ~bound:0.5 (pooled 4) cold4 ]
  in
  Printf.printf "(pool cap %d on this host; pool holds %d worker(s))\n"
    (Mis_stats.Parallel.pool_cap ())
    (Mis_stats.Parallel.pool_size ());
  Mis_stats.Parallel.shutdown ();
  print_gates gates

let luby_n1000 () =
  let view = View.full (Helpers_bench.random_tree 1000) in
  (view, Engine.create view)

(* Compiled engine: one n = 1000 Luby run on a prebuilt engine vs through
   `Runtime.run`, which compiles the view on every call. The reuse side
   drifting toward the rebuild side means the engine lost its
   amortisation win. *)
let run_engine_bench () =
  print_endline "== engine: single simulated run, prebuilt engine vs per-run rebuild";
  let view, eng = luby_n1000 () in
  print_gates
    [ paired
        "engine/single-run/luby-n1000-reuse ÷ engine/single-run/luby-n1000-rebuild"
        ~bound:0.75
        (block (seeded (Fairmis.Luby.run_distributed_on eng)))
        (block (seeded (Fairmis.Luby.run_distributed view))) ]

(* One closure-free pass over the CSR arrays of [view]'s graph, summing
   the neighbour ids: the floor any full check of the graph pays, and a
   yardstick kernel speed-ups leave where it is. *)
let csr_pass view () =
  let g = View.graph view in
  let off = Mis_graph.Graph.csr_off g and adj = Mis_graph.Graph.csr_adj g in
  let sum = ref 0 in
  for u = 0 to Array.length off - 2 do
    for i = off.(u) to off.(u + 1) - 1 do
      sum := !sum + adj.(i)
    done
  done;
  !sum

(* Kernel: the same single run by the data-parallel sweeps over a
   prebuilt [Mis_sim.Kernel], against the message engine's prebuilt
   reuse run — the kernel's reason to exist is a 5x win over it. Two
   gates keep a verified kernel trial cheap: a fixed-arity coin against
   the list key path it replaces (same value, no allocation), and the
   one-pass MIS check that follows every trial against one plain pass
   over the same CSR arrays (a fixed denominator, so kernel speed-ups do
   not eat the check's headroom). A fourth keeps
   the kernel's compile lean: it builds only what its sweeps read, none
   of the engine's neighbor id arrays, per-node contexts and message
   scratch. A fifth prices one kernel FairTree run on a 10^4-node tree,
   whose stages run as forward slot sweeps, in [Mis.verify]s of its
   output. *)
let run_kernel_bench () =
  print_endline "== kernel: data-parallel sweeps vs the message engine";
  let view, eng = luby_n1000 () in
  let kern = Mis_sim.Kernel.create view in
  let stage = Rand_plan.Stage.luby_main in
  let plan = Rand_plan.make 1 in
  let base = Mis_util.Splitmix.derive 1L [ 0x5EED ] in
  let draws f =
    let node = ref 0 in
    block (fun () ->
        incr node;
        f !node)
  in
  let mis = Fairmis.Luby.run view plan in
  let big = View.full (Helpers_bench.random_tree 100_000) in
  let tree = View.full (Helpers_bench.random_tree 10_000) in
  let tree_kern = Mis_sim.Kernel.create tree in
  let tree_mis = Fairmis.Fair_tree.run tree plan in
  print_gates
    [ paired "kernel/single-run/luby-n1000 ÷ engine/single-run/luby-n1000-reuse"
        ~bound:0.20
        (block (seeded (Fairmis.Luby.run_kernel_on kern)))
        (block (seeded (Fairmis.Luby.run_distributed_on eng)));
      paired "rand-plan/node_value ÷ splitmix/derive-list" ~bound:0.5
        (draws (fun node -> Rand_plan.node_value plan ~stage ~round:1 ~node))
        (draws (fun node ->
             Mis_util.Splitmix.bits62
               (Mis_util.Splitmix.stream base [ stage; 3; 1; node ])));
      paired "mis/verify-n1000 ÷ csr/pass-n1000" ~bound:3.0
        (block (fun () -> Fairmis.Mis.verify ~name:"luby" view mis))
        (block (csr_pass view));
      paired "kernel/create-n1e5 ÷ engine/create-n1e5" ~bound:0.5
        (block (fun () -> Mis_sim.Kernel.create big))
        (block (fun () -> Engine.create big));
      paired "kernel/single-run/fairtree-n1e4 ÷ mis/verify-n1e4" ~bound:10.
        (block (seeded (Fairmis.Fair_tree_distributed.run_kernel_on tree_kern)))
        (block (fun () -> Fairmis.Mis.verify ~name:"fairtree" tree tree_mis)) ]

(* Million-node scaling: engine build and one Luby run at n = 10^6 over
   n = 10^5 on direct-CSR attachment trees. Both are near-linear in
   n + m, so the ratios sit a little above 10 from cache effects
   (EXPERIMENTS.md records 16x for the run); a quadratic scan reads
   ~100x. A 10^6-node run takes seconds, so five samples. The third
   gate prices one kernel FairTree run at n = 10^6 in [Mis.verify]s of
   its output. The check reads the graph in node index order, so it is
   a fixed yardstick for the kernel's memory locality: an attachment
   tree hangs each node off a uniform earlier one, and slots numbered in
   index order instead of BFS order double the run. *)
let run_xl_bench () =
  print_endline "== engine/xl: 1e6 over 1e5-node build and run; kernel FairTree at 1e6";
  let tree n = Mis_workload.Trees.random_attachment_xl (Mis_util.Splitmix.of_seed 97) ~n in
  let small = tree 100_000 and large = tree 1_000_000 in
  (* Each block's garbage (a dead engine, a run's frontier and outcome
     arrays) is collected outside its clock: left to the major GC's pace
     it piles up over the samples to twice the RSS of one build and run
     (~1.9 GB vs ~1.0 GB). *)
  let collected side reps =
    let t = side reps in
    Gc.full_major ();
    t
  in
  let build g = collected (block (fun () -> Engine.create (View.full g))) in
  let build_gate =
    paired ~k:5 "engine/xl/build-n1000000 ÷ engine/xl/build-n100000" ~bound:40.
      (build large) (build small)
  in
  let run g =
    collected
      (block (seeded (Fairmis.Luby.run_distributed_on (Engine.create (View.full g)))))
  in
  let run_gate =
    paired ~k:5 "engine/xl/luby-n1000000 ÷ engine/xl/luby-n100000" ~bound:20.
      (run large) (run small)
  in
  let view = View.full large in
  let kern = Mis_sim.Kernel.create view in
  let mis =
    (Fairmis.Fair_tree_distributed.run_kernel_on kern (Rand_plan.make 1))
      .Mis_sim.Kernel.output
  in
  let fair_tree_gate =
    paired ~k:5 "kernel/xl/fairtree-n1e6 ÷ mis/verify-n1e6" ~bound:6.5
      (collected (block (seeded (Fairmis.Fair_tree_distributed.run_kernel_on kern))))
      (block (fun () -> Fairmis.Mis.verify ~name:"fairtree" view mis))
  in
  print_gates [ run_gate; build_gate; fair_tree_gate ]

(* Dynamic layer, four pairs over pre-generated churn streams. The
   repair time of the incremental maintainer ÷ that of one recomputing
   the whole live graph every batch ([incremental = false]) isolates
   what the dirty-neighbourhood repair buys: both sides sum the reports'
   [repair_seconds] past the bootstrap batch of a stationary stream
   (about 250 live nodes, as perfbench's serve-steady), so neither event
   application nor the bootstrap, which the two share, dilutes it. It
   reads Q1 0.35-0.39 on a shared 2-core host with both sides on one
   region path, 0.087 when a full recompute rebuilt a graph and a view.
   Whole serves of a draining stream, bootstrap and events included,
   read 0.31 and 0.73 on those two paths. Strict serving with the
   invariant check after every batch ÷ the same serve unchecked prices
   the check: one pass over Dyn_graph's slots reads Q1 1.01-1.07 on a
   shared 2-core host with repairs on the kernel (0.97-1.02 when they
   ran on the message engine); rebuilding a CSR snapshot per batch read
   2.9-3.1. The
   stream's wire lines decoded by [Event.parse_line]'s direct scan ÷ the
   same lines through [Json.parse] + [Event.of_json] prices the decoder
   (Q1 0.25-0.27). The stream's events applied to a fresh [Dyn_graph] ÷
   the decode of its lines prices event application against the wire:
   Q1 0.68-0.80 with twin-indexed links, 1.39-1.44 with a position hash
   table per slot. *)
let run_churn_bench () =
  print_endline
    "== churn: direct decode vs JSON; event application vs decode; \
     incremental repair vs full recompute; checked vs unchecked";
  let params = { Mis_workload.Churn.default with Mis_workload.Churn.batches = 60 } in
  let stream = Mis_workload.Churn.generate (Mis_util.Splitmix.of_seed 11) params in
  let default = Mis_dyn.Maintain.default_config in
  let serve config =
    block (fun () ->
        let m =
          Mis_dyn.Maintain.create ~config:{ config with Mis_dyn.Maintain.seed = 5 }
            ~capacity:params.Mis_workload.Churn.capacity ()
        in
        List.iter (fun b -> ignore (Mis_dyn.Maintain.apply_batch m b)) stream)
  in
  let strict check_every =
    { default with Mis_dyn.Maintain.strict = true; check_every }
  in
  let steady =
    { Mis_workload.Churn.default with
      Mis_workload.Churn.capacity = 2048; initial = 1280; batches = 200;
      arrival_mean = 48.; flap_mean = 32.; crash_prob = 0.002 }
  in
  let steady_stream = Mis_workload.Churn.generate (Mis_util.Splitmix.of_seed 11) steady in
  let repair config reps =
    let total = ref 0. in
    for _ = 1 to reps do
      let m =
        Mis_dyn.Maintain.create ~config:{ config with Mis_dyn.Maintain.seed = 5 }
          ~capacity:steady.Mis_workload.Churn.capacity ()
      in
      List.iteri
        (fun i b ->
          let r = Mis_dyn.Maintain.apply_batch m b in
          if i > 0 then total := !total +. r.Mis_dyn.Maintain.repair_seconds)
        steady_stream
    done;
    !total
  in
  let lines =
    List.concat_map
      (fun b -> List.map Mis_dyn.Event.to_json b @ [ Mis_dyn.Event.batch_marker ])
      stream
  in
  let decode parse = block (fun () -> List.iter (fun l -> ignore (parse l)) lines) in
  (* The topology updates the stream's events amount to, as the
     maintainer applies them, on a fresh graph per repetition. *)
  let module Dyn_graph = Mis_dyn.Dyn_graph in
  let apply g = function
    | Mis_dyn.Event.Node_join { node; edges } ->
      if Dyn_graph.join g node then
        List.iter (fun v -> ignore (Dyn_graph.insert_edge g node v)) edges
    | Mis_dyn.Event.Node_leave { node } -> ignore (Dyn_graph.leave g node)
    | Mis_dyn.Event.Node_crash { node } -> ignore (Dyn_graph.crash g node)
    | Mis_dyn.Event.Edge_insert { u; v } -> ignore (Dyn_graph.insert_edge g u v)
    | Mis_dyn.Event.Edge_delete { u; v } -> ignore (Dyn_graph.delete_edge g u v)
  in
  let topology =
    block (fun () ->
        let g = Dyn_graph.create ~capacity:params.Mis_workload.Churn.capacity in
        List.iter (List.iter (apply g)) stream)
  in
  let via_json l =
    match Json.parse l with Error e -> Error e | Ok v -> Mis_dyn.Event.of_json v
  in
  print_gates
    [ paired "wire/decode ÷ wire/json-parse+of_json" ~bound:0.4
        (decode Mis_dyn.Event.parse_line) (decode via_json);
      paired "dyn/apply ÷ wire/decode" ~bound:1.15 topology
        (decode Mis_dyn.Event.parse_line);
      paired "churn/repair-steady ÷ churn/repair-steady-full" ~bound:0.5
        (repair default)
        (repair { default with Mis_dyn.Maintain.incremental = false });
      paired "churn/strict-check-every-1 ÷ churn/strict-check-every-0" ~bound:1.35
        (serve (strict 1)) (serve (strict 0)) ]

(* Telemetry overhead: the engine hot path with the full serving posture
   up — a metrics registry, the flight recorder, and the HTTP exposer
   polling its socket on a background thread — vs with nothing up. No
   scrape happens, so what is timed is the idle exposer. The exposer
   starts before and stops after each "on" block, outside its clock. *)
let run_telemetry_bench () =
  print_endline "== telemetry: engine hot path, live telemetry off vs on";
  let _, eng = luby_n1000 () in
  let telemetry = Mis_obs.Telemetry.create (Metrics.create ()) in
  let off = block (seeded (Fairmis.Luby.run_distributed_on eng)) in
  let on reps =
    let server = Mis_obs.Telemetry.Http.start ~port:0 telemetry in
    Fun.protect
      ~finally:(fun () -> Mis_obs.Telemetry.Http.stop server)
      (fun () -> off reps)
  in
  print_gates
    [ paired "telemetry/luby-n1000-on ÷ telemetry/luby-n1000-off" ~bound:1.05
        on off ]

(* Causal analyzer: plain replay of a 1000-node Luby trace vs replay plus
   critical-path reconstruction (`Causal.analyze` without a summary runs
   the replay itself), so the pair isolates what the analyzer adds. *)
let run_causal_bench () =
  print_endline "== causal: trace replay vs replay + critical-path analysis";
  let events =
    let sink, events = Mis_obs.Trace.memory ~capacity:(1 lsl 21) () in
    ignore
      (Fairmis.Luby.run_distributed ~tracer:sink
         (View.full (Helpers_bench.random_tree 1000))
         (Rand_plan.make 7));
    events ()
  in
  let ok = function Ok _ -> () | Error _ -> assert false in
  print_gates
    [ paired "causal/analyze-n1000 ÷ causal/replay-n1000" ~bound:1.05
        (block (fun () -> ok (Mis_obs.Causal.analyze events)))
        (block (fun () -> ok (Mis_obs.Replay.replay events))) ]

(* Real-world tree build: the whole seed-1 small-city tree (the
   2,300-point cloud, grow steps, 10 bisection probes, one MST, pruning)
   against one [Geometry.threshold_edges] + [Mst.prim] pass over the same
   cloud at 958.14, the radius that seed-1 search settles on. Probes that
   size components by DSU, grow steps inside the scan and bisection over
   one filtered edge array, keep the whole build within a few MST builds
   (Q1 2.4-2.6 on a shared 2-core host; 3.3-3.6 when the scan built boxed
   tuple lists); a search that builds an MST at every probe reads 12-18. *)
let run_workload_bench () =
  print_endline "== workload: real-world tree search + build vs one MST build";
  let points =
    Mis_workload.Geo.sample
      (Mis_util.Splitmix.stream 1L [ 103 ])
      Mis_workload.Geo.city ~n:2300
  in
  print_gates
    [ paired
        "workload/real-world/nyc-small-build ÷ workload/real-world/nyc-small-one-forest"
        ~bound:4.0
        (block (fun () -> Mis_workload.Real_world.nyc_like_small ~seed:1))
        (block (fun () ->
             Mis_graph.Mst.prim ~n:2300
               (Mis_graph.Geometry.threshold_edges points ~radius:958.14))) ]

let sections =
  [ ("pool", "1000-trial fairness: warm worker pool vs cold pool", run_pool_scaling);
    ("engine", "compiled-engine reuse vs per-run rebuild", run_engine_bench);
    ("kernel", "data-parallel sweeps vs the message engine", run_kernel_bench);
    ("xl", "n = 1e6 over 1e5 build and run; kernel FairTree at 1e6", run_xl_bench);
    ("dyn", "direct decode vs JSON; event application vs decode; incremental repair vs full recompute; checked vs unchecked serve", run_churn_bench);
    ("telemetry", "engine hot path with live telemetry on vs off", run_telemetry_bench);
    ("causal", "replay + critical-path analysis vs replay", run_causal_bench);
    ("workload", "real-world tree search + build vs one MST build", run_workload_bench) ]

(* --- driver ------------------------------------------------------------- *)

let run_experiment ~metrics cfg id =
  match Mis_exp.Registry.find id with
  | Some e ->
    Printf.printf "# [%s] %s (%s)\n\n" e.Mis_exp.Registry.id
      e.Mis_exp.Registry.title e.Mis_exp.Registry.paper_ref;
    Metrics.time
      (Metrics.timer metrics ("experiment." ^ id))
      (fun () -> e.Mis_exp.Registry.run cfg)
  | None ->
    Printf.eprintf "unknown experiment %S; known: %s, timing, %s\n" id
      (String.concat ", " (Mis_exp.Registry.ids ()))
      (String.concat ", " (List.map (fun (id, _, _) -> id) sections));
    exit 2

let trace_path = "BENCH_trace.json"

let write_bench_trace ~cfg ~timing ~gates metrics =
  let json =
    Json.obj
      [ ("config", Json.str (Mis_exp.Config.describe cfg));
        ("metrics", Metrics.to_json (Metrics.snapshot metrics));
        ( "timing",
          Json.arr
            (List.map
               (fun (name, ns) ->
                 Json.obj [ ("workload", Json.str name); ("ns_per_run", Json.float ns) ])
               timing) );
        ( "gates",
          Json.arr
            (List.map
               (fun g ->
                 Json.obj
                   [ ("gate", Json.str g.name); ("median", Json.float g.median);
                     ("q1", Json.float g.q1); ("q3", Json.float g.q3);
                     ("bound", Json.float g.bound); ("pass", Json.bool (passes g));
                     ("num_ms", Json.float g.num_ms); ("den_ms", Json.float g.den_ms) ])
               gates) ) ]
  in
  let oc = open_out trace_path in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "bench trace written to %s\n" trace_path

let () =
  let cfg = Mis_exp.Config.load () in
  let metrics = Metrics.create () in
  let ids =
    match List.tl (Array.to_list Sys.argv) with
    | [ "list" ] ->
      List.iter
        (fun e ->
          Printf.printf "%-10s %s (%s)\n" e.Mis_exp.Registry.id
            e.Mis_exp.Registry.title e.Mis_exp.Registry.paper_ref)
        Mis_exp.Registry.all;
      print_endline "timing     one simulated run per table/figure workload";
      List.iter (fun (id, doc, _) -> Printf.printf "%-10s %s\n" id doc) sections;
      exit 0
    | [] | [ "all" ] ->
      Printf.printf "fairmis bench — %s\n\n" (Mis_exp.Config.describe cfg);
      List.map (fun e -> e.Mis_exp.Registry.id) Mis_exp.Registry.all
      @ ("timing" :: List.map (fun (id, _, _) -> id) sections)
    | ids -> ids
  in
  let timing = ref [] and gates = ref [] in
  List.iter
    (fun id ->
      if id = "timing" then timing := !timing @ run_timing ()
      else
        match List.find_opt (fun (s, _, _) -> s = id) sections with
        | Some (_, _, run) -> gates := !gates @ run ()
        | None -> run_experiment ~metrics cfg id)
    ids;
  write_bench_trace ~cfg ~timing:!timing ~gates:!gates metrics;
  Mis_obs.Prof.print_report stderr;
  match List.filter (fun g -> not (passes g)) !gates with
  | [] -> ()
  | failed ->
    flush stdout;
    List.iter
      (fun g ->
        Printf.eprintf "bench gate FAILED: %s (Q1 %.3f > bound %.2f)\n" g.name
          g.q1 g.bound)
      failed;
    exit 1
