(* fairmis — command-line driver.

   fairmis_cli list
   fairmis_cli topo  "alternating:branch=10,depth=5" --stats
   fairmis_cli run   fairtree "star:n=64" --seed 3
   fairmis_cli measure luby "star:n=64" --trials 5000
   fairmis_cli experiment table1 fig4 *)

open Cmdliner

module View = Mis_graph.View
module Graph = Mis_graph.Graph
module Empirical = Mis_stats.Empirical

let or_die = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    exit 2

(* A topology the algorithm does not handle is a usage error, not a crash. *)
let supported f =
  try f () with Mis_exp.Runners.Unsupported e -> or_die (Error e)

(* Validating cmdliner converters: a zero/negative trial count or domain
   count used to parse fine and then die deep inside the trial engine as
   an Invalid_argument; validating at parse time turns that into a clean
   usage error naming the offending option. *)
let bounded_int ~min what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= min -> Ok v
    | Some v ->
      Error (`Msg (Printf.sprintf "%s must be >= %d (got %d)" what min v))
    | None -> Error (`Msg (Printf.sprintf "%s expects an integer (got %s)" what s))
  in
  Arg.conv ~docv:"INT" (parse, Format.pp_print_int)

let pos_int what = bounded_int ~min:1 what
let nonneg_int what = bounded_int ~min:0 what

(* list *)

let list_cmd =
  let doc = "List algorithms, topologies, and experiments." in
  let json =
    Arg.(value & flag
        & info [ "json" ] ~doc:"Emit the listing as JSON (for tooling/CI).")
  in
  let run json =
    if json then begin
      let module J = Mis_obs.Json in
      print_endline
        (J.obj
           [ ( "algorithms",
               J.arr
                 (List.map
                    (fun r -> J.str r.Mis_exp.Runners.key)
                    Mis_exp.Runners.all) );
             ( "traceable",
               J.arr
                 (List.map
                    (fun r -> J.str r.Mis_exp.Runners.key)
                    Mis_exp.Runners.traceable) );
             ("topologies", J.arr (List.map J.str Mis_exp.Topo_spec.names));
             ( "experiments",
               J.arr
                 (List.map
                    (fun e ->
                      J.obj
                        [ ("id", J.str e.Mis_exp.Registry.id);
                          ("title", J.str e.Mis_exp.Registry.title);
                          ("paper_ref", J.str e.Mis_exp.Registry.paper_ref) ])
                    Mis_exp.Registry.all) ) ])
    end
    else begin
      print_endline "algorithms:";
      List.iter
        (fun r -> Printf.printf "  %s\n" r.Mis_exp.Runners.key)
        Mis_exp.Runners.all;
      print_endline "topologies (name:defaults):";
      List.iter (fun n -> Printf.printf "  %s\n" n) Mis_exp.Topo_spec.names;
      print_endline "experiments:";
      List.iter
        (fun e ->
          Printf.printf "  %-10s %s (%s)\n" e.Mis_exp.Registry.id
            e.Mis_exp.Registry.title e.Mis_exp.Registry.paper_ref)
        Mis_exp.Registry.all
    end
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ json)

(* topo *)

let spec_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TOPOLOGY")

let topo_cmd =
  let doc = "Generate a topology and print statistics or the edge list." in
  let edges =
    Arg.(value & flag & info [ "edges" ] ~doc:"Print the edge list.")
  in
  let out =
    Arg.(value & opt (some string) None
        & info [ "out" ] ~doc:"Write the edge list to this file.")
  in
  let dot =
    Arg.(value & opt (some string) None
        & info [ "dot" ] ~doc:"Write a Graphviz rendering to this file.")
  in
  let run spec print_edges out dot =
    let g = or_die (Mis_exp.Topo_spec.parse spec) in
    let v = View.full g in
    Printf.printf "topology %s: n=%d m=%d max-degree=%d components=%d%s\n" spec
      (Graph.n g) (Graph.m g) (Graph.max_degree g)
      (snd (Mis_graph.Traverse.components v))
      (if Mis_graph.Traverse.is_tree v then " (tree)"
       else if Mis_graph.Traverse.bipartition v <> None then " (bipartite)"
       else "");
    if print_edges then
      Array.iter (fun (a, b) -> Printf.printf "%d %d\n" a b) (Graph.edges g);
    (match out with
    | Some path ->
      Mis_graph.Io.write_edge_list g ~path;
      Printf.printf "edge list written to %s\n" path
    | None -> ());
    match dot with
    | Some path ->
      let oc = open_out path in
      output_string oc (Mis_graph.Io.to_dot g);
      close_out oc;
      Printf.printf "dot written to %s\n" path
    | None -> ()
  in
  Cmd.v (Cmd.info "topo" ~doc) Term.(const run $ spec_arg $ edges $ out $ dot)

(* run *)

let alg_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ALGORITHM")

let spec_arg1 =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"TOPOLOGY")

let seed_arg =
  Arg.(value & opt (nonneg_int "--seed") 1
      & info [ "seed" ] ~doc:"Random seed (>= 0; trial $(i,i) uses seed+i).")

let run_cmd =
  let doc = "Run one algorithm once and report the resulting MIS." in
  let members =
    Arg.(value & flag & info [ "members" ] ~doc:"Print the MIS members.")
  in
  let dot =
    Arg.(value & opt (some string) None
        & info [ "dot" ] ~doc:"Write a Graphviz rendering with the MIS filled.")
  in
  let run alg spec seed members dot =
    let g = or_die (Mis_exp.Topo_spec.parse spec) in
    let view = View.full g in
    let runner = or_die (Mis_exp.Runners.find alg) in
    let mis = supported (fun () -> runner.Mis_exp.Runners.run view ~seed) in
    Fairmis.Mis.verify ~name:alg view mis;
    let size = Array.fold_left (fun a b -> if b then a + 1 else a) 0 mis in
    Printf.printf "%s on %s (seed %d): MIS size %d / %d nodes — valid\n"
      runner.Mis_exp.Runners.name spec seed size (Graph.n g);
    if members then begin
      Array.iteri (fun u b -> if b then Printf.printf "%d " u) mis;
      print_newline ()
    end;
    match dot with
    | Some path ->
      let oc = open_out path in
      output_string oc (Mis_graph.Io.to_dot ~highlight:mis g);
      close_out oc;
      Printf.printf "dot written to %s\n" path
    | None -> ()
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ alg_arg $ spec_arg1 $ seed_arg $ members $ dot)

(* measure *)

let measure_cmd =
  let doc =
    "Monte Carlo estimate of the inequality factor: many seeded runs per \
     algorithm, each checked to be a maximal independent set, with an \
     ASCII per-node heatmap and histogram."
  in
  let algs =
    Arg.(required & pos 0 (some (list string)) None
        & info [] ~docv:"ALGORITHMS"
            ~doc:"Comma-separated algorithms (see 'list').")
  in
  let trials =
    Arg.(value & opt (pos_int "--trials") 2000
        & info [ "trials" ] ~doc:"Runs per algorithm.")
  in
  let domains =
    Arg.(value & opt (some (pos_int "--domains")) None
        & info [ "domains" ] ~doc:"Parallel domains.")
  in
  let csv =
    Arg.(value & opt (some string) None
        & info [ "csv" ]
            ~doc:"Write one summary row per algorithm to this CSV file.")
  in
  let run algs spec seed trials domains csv =
    let g = or_die (Mis_exp.Topo_spec.parse spec) in
    let runners = List.map (fun a -> or_die (Mis_exp.Runners.find a)) algs in
    let cfg =
      { Mis_exp.Config.trials; seed; domains;
        nyc = Mis_exp.Config.Nyc_skip; full = false }
    in
    ignore
      (supported (fun () ->
           Mis_exp.Measure.report ?csv cfg ~spec (View.full g) runners))
  in
  Cmd.v (Cmd.info "measure" ~doc)
    Term.(const run $ algs $ spec_arg1 $ seed_arg $ trials $ domains $ csv)

(* trace / analyze — shared replay plumbing *)

module Replay = Mis_obs.Replay

let count_true a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a

(* The outcome-side counters a replayed trace must reproduce. *)
let outcome_checks (s : Replay.summary) (o : Mis_sim.Runtime.outcome) =
  let open Mis_sim.Runtime in
  [ ("rounds", s.Replay.rounds, o.rounds);
    ("delivered messages", s.Replay.delivered, o.messages);
    ("dropped", s.Replay.dropped, o.dropped);
    ("delayed", s.Replay.delayed, o.delayed);
    ("in flight", s.Replay.in_flight, o.in_flight);
    ("decided", s.Replay.decided, count_true o.decided);
    ("crashed", s.Replay.crashed, count_true o.crashed);
    ("joined", count_true s.Replay.in_mis, count_true o.output);
    ("rounds recorded", Array.length s.Replay.round_stats,
     Array.length o.round_stats) ]

let reconcile_with_outcome s o =
  let bad = List.filter (fun (_, got, want) -> got <> want) (outcome_checks s o) in
  List.iter
    (fun (what, got, want) ->
      Printf.eprintf "replay mismatch: %s — trace says %d, outcome says %d\n"
        what got want)
    bad;
  bad = []

let print_summary ~width (s : Replay.summary) =
  Printf.printf
    "%s: n=%d active=%d rounds=%d%s\n"
    s.Replay.program s.Replay.n s.Replay.active s.Replay.rounds
    (if s.Replay.complete then "" else " (incomplete: undecided nodes remain)");
  Printf.printf
    "events: %d sends (%d delivered, %d dropped, %d delayed), %d received, \
     %d in flight, %d decided (%d joined), %d crashed, %d annotations\n"
    s.Replay.sends s.Replay.delivered s.Replay.dropped s.Replay.delayed
    s.Replay.received s.Replay.in_flight s.Replay.decided
    (count_true s.Replay.in_mis)
    s.Replay.crashed s.Replay.annotations;
  if s.Replay.wasted_to_decided + s.Replay.wasted_to_crashed
     + s.Replay.in_flight_end > 0
  then
    Printf.printf
      "waste: %d messages to already-decided nodes, %d to crashed nodes, \
       %d still in flight at run end\n"
      s.Replay.wasted_to_decided s.Replay.wasted_to_crashed
      s.Replay.in_flight_end;
  Printf.printf "messages/round  %s\n"
    (Mis_exp.Ascii_plot.sparkline ~width
       (Array.map
          (fun rs -> float_of_int rs.Replay.r_messages)
          s.Replay.round_stats))

let trace_cmd =
  let doc =
    "Run one simulator-backed algorithm with tracing enabled, writing the \
     structured event stream as JSONL and a per-round summary."
  in
  let out =
    Arg.(value & opt (some string) None
        & info [ "out" ]
            ~doc:"JSONL output path (default: $(i,ALGORITHM).trace.jsonl).")
  in
  let width =
    Arg.(value & opt (pos_int "--width") 60
        & info [ "width" ] ~doc:"Sparkline width.")
  in
  let analyze =
    Arg.(value & flag
        & info [ "analyze" ]
            ~doc:"Replay the written JSONL through the invariant validator \
                  and reconcile it with the recorded outcome.")
  in
  let run alg spec seed out width analyze =
    let runner, traced = or_die (Mis_exp.Runners.find_traced alg) in
    let g = or_die (Mis_exp.Topo_spec.parse spec) in
    let view = View.full g in
    let path = match out with Some p -> p | None -> alg ^ ".trace.jsonl" in
    let metrics = Mis_obs.Metrics.create () in
    let o =
      Mis_obs.Trace.with_jsonl_file path (fun file_sink ->
          let tracer =
            Mis_obs.Trace.tee [ file_sink; Mis_obs.Trace.counting metrics ]
          in
          traced view ~seed ~tracer)
    in
    let open Mis_sim.Runtime in
    Fairmis.Mis.verify ~name:alg view o.output;
    let size = count_true o.output in
    Printf.printf
      "%s on %s (seed %d): rounds=%d messages=%d MIS size %d / %d — valid\n"
      runner.Mis_exp.Runners.name spec seed o.rounds o.messages size
      (Graph.n g);
    Printf.printf "messages/round  %s\n"
      (Mis_exp.Ascii_plot.sparkline ~width
         (Array.map (fun rs -> float_of_int rs.rs_messages) o.round_stats));
    let snap = Mis_obs.Metrics.snapshot metrics in
    let count k =
      Option.value ~default:0
        (Mis_obs.Metrics.find_counter snap ("trace.events." ^ k))
    in
    let total =
      List.fold_left
        (fun a k -> a + count k)
        0
        [ "run_begin"; "round_begin"; "round_end"; "send"; "drop"; "delay";
          "recv"; "decide"; "crash"; "annotate"; "run_end" ]
    in
    Printf.printf
      "events: %d total (send %d, recv %d, decide %d, annotate %d)\n" total
      (count "send") (count "recv") (count "decide") (count "annotate");
    Printf.printf "jsonl written to %s\n" path;
    if analyze then begin
      match Replay.replay_file path with
      | Error errors ->
        List.iter (fun e -> Printf.eprintf "replay error: %s\n" e) errors;
        exit 1
      | Ok s ->
        if reconcile_with_outcome s o then
          Printf.printf
            "replay ok: all invariants hold and the trace reconciles with \
             the outcome\n"
        else exit 1
    end
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ alg_arg $ spec_arg1 $ seed_arg $ out $ width $ analyze)

(* analyze *)

let analyze_cmd =
  let doc =
    "Replay JSONL trace files: parse the event stream back into typed \
     events, validate the runtime's invariants (send/recv conservation, \
     drop/delay/crash accounting, crash silence, decide partition) and \
     print the reconstructed statistics."
  in
  let files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"TRACE.jsonl")
  in
  let width =
    Arg.(value & opt (pos_int "--width") 60
        & info [ "width" ] ~doc:"Sparkline width.")
  in
  let run files width =
    let failures = ref 0 in
    let fairness = ref None in
    List.iter
      (fun path ->
        Printf.printf "-- %s\n" path;
        match Replay.replay_file path with
        | Error errors ->
          incr failures;
          List.iter (fun e -> Printf.eprintf "replay error: %s\n" e) errors
        | Ok s ->
          print_summary ~width s;
          Printf.printf "replay ok: all invariants hold\n";
          if List.length files > 1 && s.Replay.complete then begin
            let acc =
              match !fairness with
              | Some acc when Mis_obs.Fairness.n acc = s.Replay.n -> Some acc
              | Some _ -> None  (* mixed topologies: skip aggregation *)
              | None ->
                let acc = Mis_obs.Fairness.create ~n:s.Replay.n in
                fairness := Some acc;
                Some acc
            in
            match acc with
            | Some acc -> Mis_obs.Fairness.record acc ~in_mis:s.Replay.in_mis
            | None -> ()
          end)
      files;
    (match !fairness with
    | Some acc when Mis_obs.Fairness.runs acc > 1 ->
      let s = Empirical.summarize (Empirical.of_fairness acc) in
      Printf.printf
        "-- aggregate fairness over %d traces: min P=%.3f max P=%.3f \
         factor=%s\n"
        s.Empirical.trials s.Empirical.min_freq s.Empirical.max_freq
        (Mis_exp.Table.float_cell s.Empirical.factor)
    | _ -> ());
    if !failures > 0 then exit 1
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ files $ width)

(* critpath *)

module Causal = Mis_obs.Causal

let write_timeline ~what path (json : Mis_obs.Json.t) =
  (match Mis_obs.Json.parse json with
  | Error e ->
    or_die (Error (Printf.sprintf "%s timeline is not valid JSON: %s" what e))
  | Ok v -> (
    match Causal.validate_timeline v with
    | Ok () -> ()
    | Error e ->
      or_die
        (Error (Printf.sprintf "%s timeline failed validation: %s" what e))));
  let oc = open_out path in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "%s timeline written to %s (open in ui.perfetto.dev)\n" what
    path

let critpath_cmd =
  let doc =
    "Reconstruct the happens-before critical path of a traced run — the \
     causal chain of message deliveries and local steps that forced the \
     termination round — with per-phase blame, per-node slack, waste \
     counters and optional Perfetto timeline exports."
  in
  let trace_arg =
    Arg.(value & pos 0 (some string) None
        & info [] ~docv:"TRACE.jsonl"
            ~doc:"Analyze an existing JSONL trace (as written by \
                  $(b,trace)); omit to run $(b,--alg) on $(b,--topo) \
                  fresh.")
  in
  let alg =
    Arg.(value & opt string "fairtree"
        & info [ "alg" ]
            ~doc:"Traceable algorithm for a fresh run (see 'list').")
  in
  let topo =
    Arg.(value & opt string "prufer:n=64"
        & info [ "topo" ] ~doc:"Topology spec for a fresh run.")
  in
  let node =
    Arg.(value & opt (some (nonneg_int "--node")) None
        & info [ "node" ]
            ~doc:"Also print the critical path to this node's own decide \
                  (the global path ends at the last decider).")
  in
  let top =
    Arg.(value & opt (pos_int "--top") 5
        & info [ "top" ] ~doc:"Blame rows to print.")
  in
  let protocol_out =
    Arg.(value & opt (some string) None
        & info [ "protocol-out" ]
            ~doc:"Write the protocol timeline (rounds x nodes with the \
                  critical path as a flow chain) as Chrome trace-event \
                  JSON here.")
  in
  let execution_out =
    Arg.(value & opt (some string) None
        & info [ "execution-out" ]
            ~doc:"Write the execution timeline (per-domain profiler \
                  spans; requires FAIRMIS_PROF_SPANS=1 and a fresh run) \
                  here.")
  in
  let run trace alg topo seed node top protocol_out execution_out =
    let events =
      match trace with
      | Some path -> or_die (Replay.of_jsonl path)
      | None ->
        let runner, traced = or_die (Mis_exp.Runners.find_traced alg) in
        let g = or_die (Mis_exp.Topo_spec.parse topo) in
        let sink, events = Mis_obs.Trace.memory ~capacity:(1 lsl 21) () in
        let o = traced (View.full g) ~seed ~tracer:sink in
        Fairmis.Mis.verify ~name:alg (View.full g)
          o.Mis_sim.Runtime.output;
        Printf.printf "%s on %s (seed %d): rounds=%d messages=%d\n"
          runner.Mis_exp.Runners.name topo seed o.Mis_sim.Runtime.rounds
          o.Mis_sim.Runtime.messages;
        events ()
    in
    match Causal.analyze events with
    | Error errors ->
      List.iter (fun e -> Printf.eprintf "replay error: %s\n" e) errors;
      exit 1
    | Ok t ->
      print_string (Causal.render ~top t events);
      (match node with
      | None -> ()
      | Some u ->
        let path = Causal.decide_path t events u in
        if Array.length path = 0 then
          Printf.printf "node %d never decided — no causal path\n" u
        else begin
          Printf.printf "critical path to node %d (decided round %d):\n" u
            (path.(Array.length path - 1).Causal.round);
          Array.iter
            (fun (s : Causal.step) ->
              Printf.printf "  round %3d  node %3d  %s\n" s.Causal.round
                s.Causal.node
                (match s.Causal.via with
                | Causal.Start -> "start"
                | Causal.Local -> "local step"
                | Causal.Delivery { src } ->
                  Printf.sprintf "delivery from node %d" src))
            path
        end);
      (match protocol_out with
      | Some path ->
        write_timeline ~what:"protocol" path (Causal.protocol_timeline t events)
      | None -> ());
      (match execution_out with
      | Some path -> (
        match Mis_obs.Prof.global_spans () with
        | [] ->
          Printf.eprintf
            "no profiler spans recorded — run with FAIRMIS_PROF_SPANS=1 \
             (and without TRACE.jsonl, spans come from the fresh run)\n";
          exit 1
        | spans ->
          write_timeline ~what:"execution" path
            (Causal.execution_timeline spans))
      | None -> ())
  in
  Cmd.v (Cmd.info "critpath" ~doc)
    Term.(const run $ trace_arg $ alg $ topo $ seed_arg $ node $ top
          $ protocol_out $ execution_out)

(* faults *)

let faults_cmd =
  let doc =
    "Measure MIS validity, rounds and fairness of robustified Luby vs \
     FairTree under message loss."
  in
  let n =
    Arg.(value
        & opt (bounded_int ~min:2 "--n")
            Mis_exp.Faults.default_params.Mis_exp.Faults.n
        & info [ "n"; "nodes" ] ~doc:"Random-tree size (>= 2).")
  in
  let trials =
    Arg.(value
        & opt (pos_int "--trials")
            Mis_exp.Faults.default_params.Mis_exp.Faults.trials
        & info [ "trials" ] ~doc:"Runs per algorithm and drop rate.")
  in
  let rates =
    Arg.(value
        & opt (list float) Mis_exp.Faults.default_params.Mis_exp.Faults.rates
        & info [ "rates" ] ~doc:"Comma-separated per-message drop rates.")
  in
  let repeats =
    Arg.(value
        & opt (pos_int "--repeats")
            Mis_exp.Faults.default_params.Mis_exp.Faults.repeats
        & info [ "repeats" ] ~doc:"Re-broadcast factor of the robust wrapper.")
  in
  let domains =
    Arg.(value & opt (some (pos_int "--domains")) None
        & info [ "domains" ] ~doc:"Parallel domains.")
  in
  let csv =
    Arg.(value & opt (some string) None
        & info [ "csv" ] ~doc:"Write the result rows to this CSV file.")
  in
  let run n trials rates repeats seed domains csv =
    if List.exists (fun r -> r < 0. || r > 1.) rates then
      or_die (Error "drop rates must be in [0, 1]");
    Mis_exp.Faults.run_params
      { Mis_exp.Faults.n; trials; rates; repeats; seed; domains; csv }
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(const run $ n $ trials $ rates $ repeats $ seed_arg $ domains $ csv)

(* churn-gen *)

let churn_gen_cmd =
  let doc =
    "Generate a heavy-tailed churn event stream (JSONL with batch \
     markers) over a Matérn WAP cloud, for 'serve'."
  in
  let dp = Mis_workload.Churn.default in
  let capacity =
    Arg.(value & opt (pos_int "--capacity") dp.Mis_workload.Churn.capacity
        & info [ "capacity" ] ~doc:"Node slots (AP positions).")
  in
  let initial =
    Arg.(value & opt (nonneg_int "--initial") dp.Mis_workload.Churn.initial
        & info [ "initial" ] ~doc:"Nodes up at bootstrap.")
  in
  let batches =
    Arg.(value & opt (nonneg_int "--batches") dp.Mis_workload.Churn.batches
        & info [ "batches" ] ~doc:"Churn batches after the bootstrap.")
  in
  let arrivals =
    Arg.(value & opt float dp.Mis_workload.Churn.arrival_mean
        & info [ "arrivals" ] ~doc:"Poisson mean of arrivals per batch.")
  in
  let alpha =
    Arg.(value & opt float dp.Mis_workload.Churn.lifetime_alpha
        & info [ "alpha" ] ~doc:"Pareto lifetime shape (heavy tail <= 2).")
  in
  let crash_prob =
    Arg.(value & opt float dp.Mis_workload.Churn.crash_prob
        & info [ "crash-prob" ]
            ~doc:"Probability a departure is a crash-stop.")
  in
  let flaps =
    Arg.(value & opt float dp.Mis_workload.Churn.flap_mean
        & info [ "flaps" ] ~doc:"Poisson mean of link flaps per batch.")
  in
  let radius =
    Arg.(value & opt float dp.Mis_workload.Churn.radius
        & info [ "radius" ] ~doc:"Unit-disk connectivity radius.")
  in
  let geo =
    Arg.(value & opt (enum [ ("campus", Mis_workload.Geo.campus);
                             ("city", Mis_workload.Geo.city) ])
           dp.Mis_workload.Churn.geo
        & info [ "geo" ] ~doc:"AP cloud: $(b,campus) or $(b,city).")
  in
  let out =
    Arg.(value & opt (some string) None
        & info [ "o"; "out" ] ~doc:"Output file (default stdout).")
  in
  let run capacity initial batches arrivals alpha crash_prob flaps radius geo
      seed out =
    let params =
      { dp with
        Mis_workload.Churn.capacity; initial; batches;
        arrival_mean = arrivals; lifetime_alpha = alpha; crash_prob;
        flap_mean = flaps; radius; geo }
    in
    (try Mis_workload.Churn.validate params
     with Invalid_argument e -> or_die (Error e));
    let stream =
      Mis_workload.Churn.generate (Mis_util.Splitmix.of_seed seed) params
    in
    match out with
    | None -> Mis_workload.Churn.write_jsonl stdout stream
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Mis_workload.Churn.write_jsonl oc stream);
      Printf.eprintf "stream written to %s\n" path
  in
  Cmd.v (Cmd.info "churn-gen" ~doc)
    Term.(const run $ capacity $ initial $ batches $ arrivals $ alpha
          $ crash_prob $ flaps $ radius $ geo $ seed_arg $ out)

(* serve *)

let serve_cmd =
  let doc =
    "Maintain a live MIS over a JSONL stream of topology events (one \
     incremental repair of the dirty neighbourhood per batch; a failed \
     check heals by a full recompute, or exits under $(b,--strict)); \
     prints serving statistics and verifies the final MIS."
  in
  let stream_arg =
    Arg.(required & pos 0 (some string) None
        & info [] ~docv:"STREAM.jsonl"
            ~doc:"Event stream; $(b,-) reads stdin.")
  in
  let capacity =
    Arg.(value & opt (pos_int "--capacity") 512
        & info [ "capacity" ] ~doc:"Node slots.")
  in
  let batch_size =
    Arg.(value & opt (pos_int "--batch-size") 64
        & info [ "batch-size" ]
            ~doc:"Events per batch when the stream has no batch markers.")
  in
  let max_batches =
    Arg.(value & opt (some (pos_int "--max-batches")) None
        & info [ "max-batches" ] ~doc:"Stop after this many batches.")
  in
  let strict =
    Arg.(value & flag
        & info [ "strict" ]
            ~doc:"Hard-fail on an invariant violation instead of healing \
                  with a full recompute.")
  in
  let check_every =
    Arg.(value & opt (nonneg_int "--check-every") 1
        & info [ "check-every" ]
            ~doc:"Verify the live MIS every this many batches (0 = only \
                  at end of stream).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
        & info [ "metrics"; "metrics-out" ]
            ~doc:"Write the final metrics snapshot JSON here — on clean \
                  shutdown and on an invariant-failure exit alike.")
  in
  let decisions_out =
    Arg.(value & opt (some string) None
        & info [ "decisions" ]
            ~doc:"Write per-batch decide events (JSONL) here.")
  in
  let telemetry_port =
    Arg.(value & opt (some int) None
        & info [ "telemetry-port" ]
            ~doc:"Serve live telemetry on 127.0.0.1:PORT while running: \
                  $(b,/metrics) (OpenMetrics text) and $(b,/healthz) \
                  (JSON). 0 picks an ephemeral port (printed).")
  in
  let slo =
    Arg.(value & opt float 0.1
        & info [ "slo" ]
            ~doc:"Repair-latency budget in seconds; batches over it burn \
                  the dyn.slo.breaches counter.")
  in
  let flight_out =
    Arg.(value & opt (some string) None
        & info [ "flight-recorder" ]
            ~doc:"On an invariant-failure exit, dump the flight recorder \
                  (recent decide events and batch reports, JSONL) here.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-batch progress.")
  in
  let run stream capacity batch_size max_batches strict check_every seed
      metrics_out decisions_out telemetry_port slo flight_out quiet =
    let module Maintain = Mis_dyn.Maintain in
    let module Serve = Mis_dyn.Serve in
    let module Telemetry = Mis_obs.Telemetry in
    let metrics = Mis_obs.Metrics.create () in
    let telemetry =
      match Telemetry.create ~slo metrics with
      | t -> t
      | exception Invalid_argument e -> or_die (Error e)
    in
    let write_metrics () =
      match metrics_out with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc
          (Mis_obs.Metrics.to_json (Mis_obs.Metrics.snapshot metrics));
        output_char oc '\n';
        close_out oc;
        Printf.printf "metrics written to %s\n" path
    in
    let dump_flight () =
      match flight_out with
      | None -> ()
      | Some path ->
        Telemetry.Recorder.dump_file (Telemetry.recorder telemetry) path;
        Printf.eprintf "flight recorder dumped to %s\n%!" path
    in
    let server =
      match telemetry_port with
      | None -> None
      | Some port -> (
        match Telemetry.Http.start ~port telemetry with
        | s ->
          Printf.printf "telemetry: http://127.0.0.1:%d/metrics and /healthz\n%!"
            (Telemetry.Http.port s);
          Some s
        | exception Unix.Unix_error (err, _, _) ->
          or_die
            (Error
               (Printf.sprintf "cannot bind telemetry port %d: %s" port
                  (Unix.error_message err))))
    in
    let stop_server () =
      match server with Some s -> Telemetry.Http.stop s | None -> ()
    in
    (* Failure exit: persist the observability artifacts (final metrics
       snapshot, flight-recorder dump) *before* dying — the whole point
       of a flight recorder is surviving the crash. *)
    let die e =
      write_metrics ();
      dump_flight ();
      stop_server ();
      or_die (Error e)
    in
    let with_decisions k =
      match decisions_out with
      | None -> k Mis_obs.Trace.null
      | Some path -> Mis_obs.Trace.with_jsonl_file path k
    in
    let stats =
      with_decisions (fun decisions ->
          (* Tee decide events into the flight recorder so a dump carries
             the recent decision history next to the batch reports. *)
          let decisions =
            Mis_obs.Trace.tee
              [ decisions;
                Telemetry.Recorder.sink (Telemetry.recorder telemetry) ]
          in
          let config =
            { Maintain.default_config with
              strict; check_every; seed; metrics = Some metrics;
              decisions }
          in
          let maintainer =
            try Maintain.create ~config ~capacity ()
            with Invalid_argument e -> or_die (Error e)
          in
          let on_batch (r : Maintain.report) =
            if not quiet then
              Printf.printf
                "batch %4d: events=%-3d region=%-4d rounds=%-3d%s \
                 flips=%-3d live=%d\n%!"
                r.Maintain.batch r.Maintain.events
                (Array.length r.Maintain.region_nodes) r.Maintain.rounds
                (if r.Maintain.escalated then " (healed)"
                 else if r.Maintain.full_recompute then " (full)"
                 else "")
                r.Maintain.flips r.Maintain.live
          in
          let serve ic ~file =
            try
              Ok
                (Serve.run ~batch_size ?max_batches ?file ~on_batch
                   ~telemetry maintainer ic)
            with Maintain.Invariant_violation e ->
              Error (Printf.sprintf "invariant violation: %s" e)
          in
          let result =
            if stream = "-" then serve stdin ~file:None
            else begin
              let ic = try open_in stream with Sys_error e -> or_die (Error e) in
              Fun.protect
                ~finally:(fun () -> close_in ic)
                (fun () -> serve ic ~file:(Some stream))
            end
          in
          let stats = match result with Ok s -> s | Error e -> die e in
          (* End-of-stream verification: with check_every = 0 this is the
             only invariant check, and it is cheap either way. *)
          (match Maintain.check maintainer with
          | Ok () -> ()
          | Error e -> die ("final MIS invalid: " ^ e));
          let g = Maintain.graph maintainer in
          let mis = Maintain.mis maintainer in
          let members =
            Array.fold_left (fun a b -> if b then a + 1 else a) 0 mis
          in
          let pct q =
            match Mis_obs.Sketch.quantile stats.Serve.latency q with
            | Some s -> s *. 1000.
            | None -> 0.
          in
          Printf.printf
            "served %d batches (%d lines, %d events: %d applied, %d \
             skipped, %d malformed)\n"
            stats.Serve.batches stats.Serve.lines stats.Serve.events
            stats.Serve.applied stats.Serve.skipped stats.Serve.malformed;
          Printf.printf
            "repair: p50=%.2fms p95=%.2fms p99=%.2fms, escalations=%d, \
             full recomputes=%d, max region=%d, flips=%d\n"
            (pct 0.50) (pct 0.95) (pct 0.99) stats.Serve.escalations
            stats.Serve.full_recomputes stats.Serve.max_region
            stats.Serve.flips;
          Printf.printf "final MIS valid: %d members over %d alive nodes\n"
            members (Mis_dyn.Dyn_graph.alive_count g);
          stats)
    in
    stop_server ();
    write_metrics ();
    ignore stats
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ stream_arg $ capacity $ batch_size $ max_batches
          $ strict $ check_every $ seed_arg $ metrics_out
          $ decisions_out $ telemetry_port $ slo $ flight_out $ quiet)

(* experiment *)

let experiment_cmd =
  let doc = "Run registered paper experiments (see 'list')." in
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID") in
  let domains =
    Arg.(value & opt (some (pos_int "--domains")) None
        & info [ "domains" ]
            ~doc:"Parallel domains for the trial engine (overrides \
                  FAIRMIS_DOMAINS; results are bit-identical at any \
                  value).")
  in
  let run domains ids =
    let cfg = Mis_exp.Config.load () in
    let cfg =
      match domains with
      | None -> cfg
      | Some d -> { cfg with Mis_exp.Config.domains = Some d }
    in
    List.iter
      (fun id ->
        match Mis_exp.Registry.find id with
        | Some e -> e.Mis_exp.Registry.run cfg
        | None ->
          Printf.eprintf "unknown experiment %S\n" id;
          exit 2)
      ids
  in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(const run $ domains $ ids)

let () =
  let doc = "Fair Maximal Independent Sets — simulator and experiments" in
  let info = Cmd.info "fairmis_cli" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval
      (Cmd.group info
         [ list_cmd; topo_cmd; run_cmd; measure_cmd; trace_cmd; analyze_cmd;
           critpath_cmd; faults_cmd;
           churn_gen_cmd; serve_cmd; experiment_cmd ])
  in
  (* FAIRMIS_PROF=1: span tree (wall time + GC work) on stderr. *)
  Mis_obs.Prof.print_report stderr;
  exit code
