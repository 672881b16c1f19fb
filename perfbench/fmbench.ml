(* One repetition of one benchmark workload, in its own process.

   fmbench gen --seed N --out FILE
     writes the serve-steady churn stream (JSONL wire) to FILE.
   fmbench run --workload W --seed N [--trace] [--domains D] [--stream FILE]
     sets up, runs the timed phase, checks every output and prints one
     JSON object (timings, exact counts, digests, and per-layer numbers
     when traced) as its last stdout line. run.py aggregates repetitions.

   Every call below goes through the libraries' public interfaces; the
   traced run times those calls from wrappers in this file only. *)

module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Splitmix = Mis_util.Splitmix
module Rand_plan = Fairmis.Rand_plan
module Empirical = Mis_stats.Empirical
module Runners = Mis_exp.Runners
module Workloads = Mis_exp.Workloads
module Maintain = Mis_dyn.Maintain
module Dyn_graph = Mis_dyn.Dyn_graph
module Event = Mis_dyn.Event
module Json = Mis_obs.Json

let now = Unix.gettimeofday

(* Sections filled by the workload and printed once at exit. [counts]
   and [digests] must match exactly between repetitions, traced or not. *)
let fields = ref []
let counts = ref []
let digests = ref []
let layers = ref []
let put r k v = r := (k, v) :: !r
let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      incr failed)
    fmt

let digest_ints a =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter (fun x -> Buffer.add_string b (string_of_int x); Buffer.add_char b ',') a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_bools a =
  Digest.to_hex (Digest.string (String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')))

(* Nearest-rank percentile. *)
let percentile q l =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median = percentile 0.5
let sum = List.fold_left ( +. ) 0.
let ms_list l = Json.Arr (List.rev_map (fun s -> Json.Float (s *. 1e3)) l)

(* Words allocated by the calling domain: minor plus direct-major,
   minus promotions (already in the minor count). *)
let alloc_words () =
  let mi, pro, ma = Gc.counters () in
  mi +. ma -. pro

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* ---------- per-trial records, shared by the pool's domains ---------- *)

type recorder = {
  lock : Mutex.t;
  mutable exec : (string * float) list;  (** algorithm, seconds per trial *)
  mutable alloc : float;  (** words *)
  mutable validate : float;
  mutable last_end : float;  (** end of the latest trial's check *)
}

let recorder () =
  { lock = Mutex.create (); exec = []; alloc = 0.; validate = 0.; last_end = 0. }

let locked r f =
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) f

(* [timed_exec r alg f]: run [f], recording its wall time and what the
   calling domain allocated meanwhile. *)
let timed_exec r alg f =
  let a0 = alloc_words () in
  let t0 = now () in
  let out = f () in
  let dt = now () -. t0 in
  let words = alloc_words () -. a0 in
  locked r (fun () ->
      r.exec <- (alg, dt) :: r.exec;
      r.alloc <- r.alloc +. words);
  out

let timed_validate r f =
  let t0 = now () in
  let res = f () in
  let t1 = now () in
  locked r (fun () ->
      r.validate <- r.validate +. (t1 -. t0);
      if t1 > r.last_end then r.last_end <- t1);
  res

(* Per-layer numbers of the trial workloads. [domains] is the number of
   domains the timed phase ran on; at one the pool is bypassed. *)
let exec_layers r ~phase ~domains ~reduce ~rounds_mean =
  let ms alg = median (List.filter_map (fun (a, dt) -> if a = alg then Some (dt *. 1e3) else None) r.exec) in
  let exec_s = sum (List.map snd r.exec) in
  let busy = exec_s +. r.validate in
  let d = float_of_int domains in
  put layers "exec.luby_ms" (Json.Float (ms "luby"));
  put layers "exec.fairtree_ms" (Json.Float (ms "fairtree"));
  put layers "exec.alloc_mb_per_trial" (Json.Float (mb_of_words r.alloc /. float_of_int (List.length r.exec)));
  put layers "exec.rounds_mean" (Json.Float rounds_mean);
  put layers "validate.s" (Json.Float r.validate);
  put layers "validate.share" (Json.Float (r.validate /. busy));
  put layers "pool.busy_share" (Json.Float (if domains > 1 then busy /. (d *. phase) else 0.));
  put layers "reduce.s" (Json.Float reduce);
  (* Wall-clock attribution of the timed phase: the trial time spread
     over the domains that ran it, plus the reduction tail. *)
  put layers "trace.attributed_share" (Json.Float (((busy /. d) +. reduce) /. phase))

(* ---------- table1-full ---------- *)

(* Trials per (tree, algorithm) and sweeps of the 12 cells per process.
   A set-up (the NYC-like build) costs 10-15 s, so one process times
   several sweeps after it; Runners.measure keeps no cache, so every
   sweep recomputes every cell. *)
let table1_trials = 120
let table1_sweeps = 4

let table1_runners = [ ("luby", Runners.luby); ("fairtree", Runners.fair_tree) ]

(* Spawn the pool's workers before timing, as the first measure would.
   Prof's env flags are lazies that every pooled chunk forces; forcing
   them here first keeps two domains from forcing one concurrently
   (CamlinternalLazy.Undefined), as Runners.measure's outer span does. *)
let warm_pool domains =
  ignore (Mis_obs.Prof.enabled ());
  Mis_stats.Parallel.map_reduce ~domains ~chunk:1 ~tasks:(2 * domains)
    ~init:(fun () -> ())
    ~merge:(fun () () -> ())
    (fun () _ -> ())

let counts_of_empirical e =
  let t = float_of_int (Empirical.trials e) in
  Array.map (fun f -> int_of_float (Float.round (f *. t))) (Empirical.frequencies e)

(* Rounds are not visible through [Runners.t]; the traced run recounts
   them after the timed phase on the first seeds of every cell, with the
   stats entry points the runners wrap ([run = fst run_stats]). *)
let table1_rounds_seeds = 32

let table1_rounds ~seed trees =
  let total = ref 0 and runs = ref 0 in
  List.iter
    (fun (_, g, _) ->
      let view = View.full g in
      for i = 0 to table1_rounds_seeds - 1 do
        let plan () = Rand_plan.make (seed + i) in
        let _, st = Fairmis.Luby.run_stats view (plan ()) in
        let _, tr = Fairmis.Fair_tree.run_traced view (plan ()) in
        total := !total + st.Fairmis.Luby.phases + tr.Fairmis.Fair_tree.rounds;
        runs := !runs + 2
      done)
    trees;
  float_of_int !total /. float_of_int !runs

(* The trees are Table I's at the default configuration seed, as
   [experiment table1] builds them: the seeded Dartmouth- and NYC-like
   geometry jumps between threshold radii from seed to seed, which would
   swing set-up time and heap by 15%. The benchmark seed picks the trial
   coins (the Monte Carlo base seed). *)
let table1_tree_seed = 1

let table1 ~seed ~domains ~trace =
  let cfg =
    { Mis_exp.Config.trials = table1_trials; seed; domains = Some domains;
      nyc = Mis_exp.Config.Nyc_full; full = true }
  in
  let t_start = now () in
  let trees =
    List.map
      (fun (tree : Workloads.tree) ->
        let t0 = now () in
        let g = Lazy.force tree.Workloads.graph in
        (tree, g, now () -. t0))
      (Workloads.table1_trees { cfg with Mis_exp.Config.seed = table1_tree_seed })
  in
  warm_pool domains;
  let setup = now () -. t_start in
  let nodes = List.fold_left (fun a (_, g, _) -> a + Graph.n g) 0 trees in
  let edges = List.fold_left (fun a (_, g, _) -> a + Graph.m g) 0 trees in
  (* Chunks per cell by the engine's documented default chunking; the
     traced run counts the chunks it actually saw. *)
  let chunks_per_cell =
    let c = Mis_stats.Parallel.default_chunk ~tasks:table1_trials in
    (table1_trials + c - 1) / c
  in
  let seen_chunks = Atomic.make 0 in
  let rec_ = recorder () in
  let reduce = ref 0. in
  let sweeps = ref [] in
  let cell tree g (key, (runner : Runners.t)) =
    let view = View.full g in
    attempted := !attempted + table1_trials;
    let measure () =
      if not trace then Runners.measure cfg view runner
      else
        (* Runners.measure with each trial's run and Mis.verify timed and
           the engine's chunks counted through the per-chunk ctx. *)
        Mis_stats.Montecarlo.estimate_ctx
          ~check:(fun mis ->
            timed_validate rec_ (fun () -> Fairmis.Mis.verify ~name:runner.Runners.name view mis))
          (Mis_exp.Config.montecarlo cfg)
          ~ctx:(fun () -> Atomic.incr seen_chunks)
          view
          (fun () ~seed -> timed_exec rec_ key (fun () -> runner.Runners.run view ~seed))
    in
    let name = tree.Workloads.name ^ "." ^ key in
    match measure () with
    | exception Fairmis.Mis.Invalid msg ->
      fail "%s: %s" name msg;
      failed := !failed + table1_trials - 1
    | measured ->
      (* Reporting, as [experiment table1] prints it. *)
      let s = Empirical.summarize measured in
      if trace then reduce := !reduce +. (now () -. rec_.last_end);
      if s.Empirical.nodes <> Graph.n g then fail "%s: %d nodes summarized" name s.Empirical.nodes;
      let d = digest_ints (counts_of_empirical measured) in
      (match List.assoc_opt name !digests with
      | None -> put digests name (Json.Str d)
      | Some (Json.Str d0) when d0 = d -> ()
      | Some _ -> fail "%s: counts differ between sweeps" name)
  in
  for _ = 1 to table1_sweeps do
    let t0 = now () in
    List.iter (fun ((tree : Workloads.tree), g, _) -> List.iter (cell tree g) table1_runners) trees;
    sweeps := (now () -. t0) :: !sweeps
  done;
  let phase = sum !sweeps in
  put fields "setup_s" (Json.Float setup);
  (* Throughput of the median sweep: one slow sweep does not move it. *)
  put fields "throughput" (Json.Float (float_of_int (2 * List.length trees * table1_trials) /. median !sweeps));
  put fields "op_ms" (ms_list !sweeps);
  put counts "workload.nodes" (Json.Int nodes);
  put counts "workload.edges" (Json.Int edges);
  put counts "pool.chunks"
    (Json.Int (if trace then Atomic.get seen_chunks
        else table1_sweeps * 2 * List.length trees * chunks_per_cell));
  if trace then begin
    put layers "workload.build_s" (Json.Float (sum (List.map (fun (_, _, dt) -> dt) trees)));
    List.iter
      (fun ((tree : Workloads.tree), _, dt) ->
        if tree.Workloads.name = "nyc-like" then put layers "workload.build_s.nyc-like" (Json.Float dt))
      trees;
    put layers "workload.nodes" (Json.Int nodes);
    put layers "workload.edges" (Json.Int edges);
    put layers "pool.chunks" (Json.Int (Atomic.get seen_chunks));
    exec_layers rec_ ~phase ~domains ~reduce:!reduce
      ~rounds_mean:(table1_rounds ~seed trees)
  end

(* ---------- xl-1e6 ---------- *)

let xl_nodes = 1_000_000

(* Alternating Luby / FairTree pairs on one compiled kernel. *)
let xl_pairs = 2

let xl ~seed ~trace =
  let t_start = now () in
  let g = Mis_workload.Trees.random_attachment_xl (Splitmix.of_seed seed) ~n:xl_nodes in
  let view = View.full g in
  let t_built = now () in
  let a0 = alloc_words () in
  let kernel = Mis_sim.Kernel.create view in
  let compile_words = alloc_words () -. a0 in
  let setup = now () -. t_start in
  let n = View.n view in
  let joins = [| Array.make n 0; Array.make n 0 |] in
  let rounds = ref 0 in
  let rec_ = recorder () in
  let pairs = ref [] in
  let t_phase = now () in
  for p = 0 to xl_pairs - 1 do
    let t_pair = now () in
    List.iteri
      (fun j (alg, exec) ->
        let i = (2 * p) + j in
        attempted := !attempted + 1;
        let plan = Rand_plan.make (seed + i) in
        let o = timed_exec rec_ alg (fun () -> Fairmis.Backend.of_kernel (exec kernel plan)) in
        let output = o.Fairmis.Backend.output in
        (match timed_validate rec_ (fun () -> Fairmis.Mis.verify ~name:alg view output) with
        | () -> ()
        | exception Fairmis.Mis.Invalid msg -> fail "xl trial %d (%s): %s" i alg msg);
        rounds := !rounds + o.Fairmis.Backend.rounds;
        let acc = joins.(j) in
        Array.iteri (fun u b -> if b then acc.(u) <- acc.(u) + 1) output)
      [ ("luby", fun k plan -> Fairmis.Luby.run_kernel_on k plan);
        ("fairtree", fun k plan -> Fairmis.Fair_tree_distributed.run_kernel_on k plan) ];
    pairs := (now () -. t_pair) :: !pairs
  done;
  let phase = now () -. t_phase in
  let rounds_mean = float_of_int !rounds /. float_of_int (2 * xl_pairs) in
  put fields "setup_s" (Json.Float setup);
  put fields "throughput" (Json.Float (float_of_int (2 * xl_pairs) /. phase));
  put fields "op_ms" (ms_list !pairs);
  put counts "workload.nodes" (Json.Int (Graph.n g));
  put counts "workload.edges" (Json.Int (Graph.m g));
  put counts "exec.rounds_mean" (Json.Float rounds_mean);
  put digests "xl.luby" (Json.Str (digest_ints joins.(0)));
  put digests "xl.fairtree" (Json.Str (digest_ints joins.(1)));
  if trace then begin
    put layers "workload.build_s" (Json.Float (t_built -. t_start));
    put layers "workload.nodes" (Json.Int (Graph.n g));
    put layers "workload.edges" (Json.Int (Graph.m g));
    put layers "sim.compile_s" (Json.Float (setup -. (t_built -. t_start)));
    put layers "sim.compile_mb" (Json.Float (mb_of_words compile_words));
    exec_layers rec_ ~phase ~domains:1 ~reduce:0. ~rounds_mean
  end

(* ---------- serve-steady ---------- *)

(* A stationary stream: arrivals balance Pareto lifetimes near 250 live
   nodes, and crash-stop slots (which never return) stay rare, so the
   last quartile serves as large a graph as the first. *)
let churn_params =
  { Mis_workload.Churn.default with
    Mis_workload.Churn.capacity = 2048;
    initial = 1280;
    batches = 1000;
    arrival_mean = 48.;
    flap_mean = 32.;
    crash_prob = 0.002 }

let gen ~seed ~out =
  let stream = Mis_workload.Churn.generate (Splitmix.of_seed seed) churn_params in
  Out_channel.with_open_text out (fun oc -> Mis_workload.Churn.write_jsonl oc stream)

let crashed_count g =
  let c = ref 0 in
  for u = 0 to Dyn_graph.capacity g - 1 do
    if Dyn_graph.state g u = Dyn_graph.Crashed then incr c
  done;
  !c

(* The Dyn_graph mutations an event amounts to, as Maintain applies them. *)
let apply_event g = function
  | Event.Node_join { node; edges } ->
    if Dyn_graph.join g node then List.iter (fun v -> ignore (Dyn_graph.insert_edge g node v)) edges
  | Event.Node_leave { node } -> ignore (Dyn_graph.leave g node)
  | Event.Node_crash { node } -> ignore (Dyn_graph.crash g node)
  | Event.Edge_insert { u; v } -> ignore (Dyn_graph.insert_edge g u v)
  | Event.Edge_delete { u; v } -> ignore (Dyn_graph.delete_edge g u v)

(* Layers Serve.run does not expose, timed by replaying the same stream
   through the same public functions after serving: line reads, parsing
   (Event.parse_line) and the topology updates (Dyn_graph). *)
let replay_layers stream =
  let t0 = now () in
  let lines =
    In_channel.with_open_text stream (fun ic ->
        let rec go acc = match In_channel.input_line ic with Some l -> go (l :: acc) | None -> List.rev acc in
        go [])
  in
  let read_s = now () -. t0 in
  let lines = List.filter (fun l -> l <> Event.batch_marker) lines in
  let t0 = now () in
  let events = List.filter_map (fun l -> Result.to_option (Event.parse_line l)) lines in
  let parse_s = now () -. t0 in
  let g = Dyn_graph.create ~capacity:churn_params.Mis_workload.Churn.capacity in
  let t0 = now () in
  List.iter (apply_event g) events;
  let apply_s = now () -. t0 in
  (List.length events, read_s, parse_s, apply_s)

let serve ~seed ~trace ~stream =
  let churn = churn_params.Mis_workload.Churn.batches in
  let t_start = now () in
  let config =
    { Maintain.default_config with
      Maintain.strict = true;
      check_every = (if trace then 0 else 1);
      seed;
      metrics = Some (Mis_obs.Metrics.create ()) }
  in
  let m = Maintain.create ~config ~capacity:churn_params.Mis_workload.Churn.capacity () in
  let setup = ref nan and t_phase = ref nan and last = ref nan in
  let intervals = ref [] and live = ref [] and repair = ref [] and check_s = ref [] in
  let region = ref 0 and rounds = ref 0 and flips = ref 0 and esc = ref 0 and applied = ref 0 in
  let quartiles = ref [] in
  let on_batch (r : Maintain.report) =
    if trace then begin
      let t0 = now () in
      (match Maintain.check m with Ok () -> () | Error e -> fail "%s" e);
      if r.Maintain.batch > 1 then check_s := (now () -. t0) :: !check_s
    end;
    let t = now () in
    if r.Maintain.batch = 1 then begin
      setup := t -. t_start;
      t_phase := t
    end
    else begin
      intervals := (t -. !last) :: !intervals;
      live := r.Maintain.live :: !live;
      repair := r.Maintain.repair_seconds :: !repair;
      region := !region + Array.length r.Maintain.region_nodes;
      rounds := !rounds + r.Maintain.rounds;
      flips := !flips + r.Maintain.flips;
      applied := !applied + r.Maintain.applied;
      if r.Maintain.escalated then incr esc
    end;
    if (r.Maintain.batch - 1) mod (churn / 4) = 0 then
      quartiles := (r.Maintain.live, crashed_count (Maintain.graph m)) :: !quartiles;
    last := now ()
  in
  let stats =
    In_channel.with_open_text stream (fun ic ->
        match Mis_dyn.Serve.run ~batch_size:max_int ~file:stream ~on_batch m ic with
        | s -> Some s
        | exception Maintain.Invariant_violation e ->
          fail "invariant violation: %s" e;
          None)
  in
  let phase = !last -. !t_phase in
  let n_churn = List.length !intervals in
  attempted := !attempted + 1 + n_churn;
  Option.iter (fun s -> failed := !failed + s.Mis_dyn.Serve.malformed) stats;
  (match Maintain.check m with Ok () -> () | Error e -> fail "final check: %s" e);
  if n_churn <> churn then fail "served %d churn batches, expected %d" n_churn churn;
  (* Stationarity guard: the last quartile must not have drained. *)
  let lv = Array.of_list (List.rev_map float_of_int !live) in
  let quarter q = Array.to_list (Array.sub lv (q * n_churn / 4) (n_churn / 4)) in
  let q1 = median (quarter 0) and q4 = median (quarter 3) in
  if not (q4 >= 0.5 *. q1) then
    fail "stream drained: live median %.0f in the first quartile, %.0f in the last" q1 q4;
  let per_batch x = Json.Float (float_of_int x /. float_of_int n_churn) in
  put fields "setup_s" (Json.Float !setup);
  put fields "throughput" (Json.Float (float_of_int !applied /. phase));
  put fields "op_ms" (ms_list !intervals);
  put fields "quartiles" (Json.Arr (List.rev_map (fun (l, c) -> Json.Obj [ ("live", Json.Int l); ("crashed", Json.Int c) ]) !quartiles));
  put counts "repair.region_nodes_mean" (per_batch !region);
  put counts "repair.rounds_mean" (per_batch !rounds);
  put counts "repair.flips" (Json.Int !flips);
  put counts "repair.escalations" (Json.Int !esc);
  put counts "events.applied" (Json.Int !applied);
  put digests "serve.mis" (Json.Str (digest_bools (Maintain.mis m)));
  if trace then begin
    let events, read_s, parse_s, apply_s = replay_layers stream in
    put counts "wire.events" (Json.Int events);
    let repair_s = sum !repair and check_total = sum !check_s in
    let ms q l = Json.Float (1e3 *. percentile q l) in
    put layers "wire.read_s" (Json.Float read_s);
    put layers "wire.parse_s" (Json.Float parse_s);
    put layers "dyn.apply_s" (Json.Float apply_s);
    put layers "repair.ms_p50" (ms 0.5 !repair);
    put layers "repair.ms_p99" (ms 0.99 !repair);
    put layers "repair.region_nodes_mean" (per_batch !region);
    put layers "repair.rounds_mean" (per_batch !rounds);
    put layers "repair.escalations" (Json.Int !esc);
    put layers "repair.flips" (Json.Int !flips);
    put layers "check.ms_p50" (ms 0.5 !check_s);
    put layers "check.share" (Json.Float (check_total /. phase));
    put layers "dyn.live_nodes_p50" (Json.Float (median (Array.to_list lv)));
    put layers "dyn.live_nodes_min" (Json.Float (Array.fold_left Float.min infinity lv));
    put layers "trace.attributed_share"
      (Json.Float ((read_s +. parse_s +. apply_s +. repair_s +. check_total) /. phase))
  end

(* ---------- entry point ---------- *)

let usage = "fmbench gen --seed N --out FILE | fmbench run --workload W --seed N [--trace] [--domains D] [--stream FILE]"

let () =
  let workload = ref "" and seed = ref 1 and trace = ref false in
  let domains = ref 1 and stream = ref "" and out = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME table1-full | xl-1e6 | serve-steady");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--trace", Arg.Set trace, " time each layer");
      ("--domains", Arg.Set_int domains, "D trial domains (table1-full)");
      ("--stream", Arg.Set_string stream, "FILE churn stream (serve-steady)");
      ("--out", Arg.Set_string out, "FILE stream output (gen)") ]
  in
  let cmd = ref "" in
  Arg.parse spec (fun a -> if !cmd = "" then cmd := a else raise (Arg.Bad a)) usage;
  match !cmd with
  | "gen" -> gen ~seed:!seed ~out:!out
  | "run" ->
    (match !workload with
    | "table1-full" -> table1 ~seed:!seed ~domains:!domains ~trace:!trace
    | "xl-1e6" -> xl ~seed:!seed ~trace:!trace
    | "serve-steady" -> serve ~seed:!seed ~trace:!trace ~stream:!stream
    | w -> raise (Arg.Bad ("unknown workload " ^ w)));
    let st = Gc.quick_stat () in
    put fields "peak_heap_mb" (Json.Float (mb_of_words (float_of_int st.Gc.top_heap_words)));
    put layers "gc.minor_collections" (Json.Int st.Gc.minor_collections);
    put layers "gc.major_collections" (Json.Int st.Gc.major_collections);
    print_endline
      (Json.emit
         (Json.Obj
            (List.rev !fields
            @ [ ("attempted", Json.Int !attempted); ("failed", Json.Int !failed);
                ("counts", Json.Obj (List.rev !counts)); ("digests", Json.Obj (List.rev !digests));
                ("layers", Json.Obj (List.rev !layers)) ])))
  | _ ->
    prerr_endline usage;
    exit 2
