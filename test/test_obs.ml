(* Tests for the observability layer (Mis_obs): the JSON emitter, the
   metrics registry, trace sinks, the zero-cost null-tracer guarantee of
   the runtime, event/outcome reconciliation, the always-on per-round
   stats, and a golden pin of the JSONL event stream of a seeded FairTree
   run. *)

module View = Mis_graph.View
module Program = Mis_sim.Program
module Runtime = Mis_sim.Runtime
module Fault = Mis_sim.Fault
module Node_ctx = Mis_sim.Node_ctx
module Splitmix = Mis_util.Splitmix
module Trees = Mis_workload.Trees
module Rand_plan = Fairmis.Rand_plan
module Json = Mis_obs.Json
module Metrics = Mis_obs.Metrics
module Trace = Mis_obs.Trace

(* --- Json -------------------------------------------------------------- *)

let test_json_values () =
  Alcotest.(check string) "int" "42" (Json.int 42);
  Alcotest.(check string) "bool" "true" (Json.bool true);
  Alcotest.(check string) "null" "null" Json.null;
  Alcotest.(check string) "plain string" {|"abc"|} (Json.str "abc");
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd"|} (Json.str "a\"b\\c\nd");
  Alcotest.(check string) "control" {|"\u0001"|} (Json.str "\001");
  Alcotest.(check string) "float frac" "1.5" (Json.float 1.5);
  Alcotest.(check string) "float int" "2.0" (Json.float 2.);
  Alcotest.(check string) "float tenth" "0.1" (Json.float 0.1);
  Alcotest.(check string) "nan" "null" (Json.float Float.nan);
  Alcotest.(check string) "inf" "null" (Json.float Float.infinity);
  Alcotest.(check string) "obj order" {|{"b":1,"a":2}|}
    (Json.obj [ ("b", Json.int 1); ("a", Json.int 2) ]);
  Alcotest.(check string) "arr" "[1,2]" (Json.arr [ Json.int 1; Json.int 2 ])

let test_json_float_roundtrip () =
  List.iter
    (fun f ->
      let s = Json.float f in
      Alcotest.(check (float 0.)) ("round-trip " ^ s) f (float_of_string s))
    [ 0.1; 1. /. 3.; 1e-7; 123456.789; Float.pi ]

(* --- Metrics ------------------------------------------------------------ *)

let test_metrics_counter_gauge () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  (* Idempotent registration: same name, same cell. *)
  Metrics.incr (Metrics.counter m "c");
  Alcotest.(check int) "shared" 6 (Metrics.counter_value c);
  let g = Metrics.gauge m "g" in
  Metrics.set g 2.5;
  Metrics.set (Metrics.gauge m "g") 3.5;
  Alcotest.(check (option (float 0.))) "gauge" (Some 3.5)
    (Metrics.find_gauge (Metrics.snapshot m) "g")

let test_metrics_kind_mismatch () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Metrics: \"x\" already registered as a counter")
    (fun () -> ignore (Metrics.gauge m "x"))

let test_metrics_histogram () =
  let m = Metrics.create () in
  ignore (Metrics.histogram m "default");
  Alcotest.(check bool) "default buckets increasing" true
    (match List.assoc_opt "default" (Metrics.items (Metrics.snapshot m)) with
    | Some (Metrics.Histogram_v { v_buckets = b; _ }) ->
      Array.for_all (fun i -> b.(i) < b.(i + 1))
        (Array.init (Array.length b - 1) (fun i -> i))
    | _ -> false);
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[| 1.; 2.; 4. |] "h" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 3.0; 100.0 ];
  Metrics.observe_int h 2;
  let snap = Metrics.snapshot m in
  let json = Metrics.to_json snap in
  Alcotest.(check string) "snapshot json"
    ({|{"counters":{},"gauges":{},"histograms":{"h":{"buckets":[1.0,2.0,4.0],|}
    ^ {|"counts":[2,1,1,1],"count":5,"sum":106.5,"min":0.5,"max":100.0}},|}
    ^ {|"timers":{},"sketches":{}}|})
    json;
  Alcotest.check_raises "bad buckets"
    (Invalid_argument "Metrics.histogram: buckets must be strictly increasing")
    (fun () -> ignore (Metrics.histogram m ~buckets:[| 2.; 1. |] "bad"))

let test_metrics_timer () =
  let m = Metrics.create () in
  let t = Metrics.timer m "t" in
  let v = Metrics.time t (fun () -> 41 + 1) in
  Alcotest.(check int) "result" 42 v;
  let seconds, calls = Helpers.timer_value m "t" in
  Alcotest.(check int) "calls" 1 calls;
  Alcotest.(check bool) "elapsed >= 0" true (seconds >= 0.);
  (* Exceptions propagate and the call is still recorded. *)
  (try Metrics.time t (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "calls after raise" 2 (snd (Helpers.timer_value m "t"))

let test_metrics_snapshot_find () =
  let m = Metrics.create () in
  Metrics.incr ~by:7 (Metrics.counter m "a");
  Metrics.set (Metrics.gauge m "b") 1.25;
  let snap = Metrics.snapshot m in
  Alcotest.(check (option int)) "find counter" (Some 7)
    (Metrics.find_counter snap "a");
  Alcotest.(check (option (float 0.))) "find gauge" (Some 1.25)
    (Metrics.find_gauge snap "b");
  Alcotest.(check (option int)) "missing" None (Metrics.find_counter snap "z");
  (* The snapshot is a copy: later updates don't leak in. *)
  Metrics.incr (Metrics.counter m "a");
  Alcotest.(check (option int)) "copy" (Some 7) (Metrics.find_counter snap "a")

(* --- Trace sinks -------------------------------------------------------- *)

let ev_round r = Trace.Round_begin { round = r }

let test_null_and_tee () =
  Alcotest.(check bool) "null is null" true (Trace.is_null Trace.null);
  Alcotest.(check bool) "tee [] is null" true (Trace.is_null (Trace.tee []));
  Alcotest.(check bool) "tee nulls is null" true
    (Trace.is_null (Trace.tee [ Trace.null; Trace.null ]));
  let sink, events = Trace.memory () in
  let t = Trace.tee [ Trace.null; sink ] in
  Alcotest.(check bool) "tee with a live sink" false (Trace.is_null t);
  t.Trace.emit (ev_round 1);
  Alcotest.(check int) "forwarded" 1 (List.length (events ()))

let test_memory_ring () =
  let sink, events = Trace.memory ~capacity:4 () in
  for r = 1 to 10 do
    sink.Trace.emit (ev_round r)
  done;
  let rounds =
    List.map
      (function Trace.Round_begin { round } -> round | _ -> -1)
      (events ())
  in
  Alcotest.(check (list int)) "last 4, oldest first" [ 7; 8; 9; 10 ] rounds

let test_counting_sink () =
  let m = Metrics.create () in
  let sink = Trace.counting m in
  sink.Trace.emit (ev_round 0);
  sink.Trace.emit (ev_round 1);
  sink.Trace.emit (Trace.Decide { round = 1; node = 0; in_mis = true });
  let snap = Metrics.snapshot m in
  Alcotest.(check (option int)) "round_begin" (Some 2)
    (Metrics.find_counter snap "trace.events.round_begin");
  Alcotest.(check (option int)) "decide" (Some 1)
    (Metrics.find_counter snap "trace.events.decide")

let test_jsonl_file () =
  let path = Filename.temp_file "fairmis_obs" ".trace.jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let evs =
        [ Trace.Run_begin { program = "p"; n = 2; active = 2 };
          Trace.Send { round = 0; src = 0; dst = 1 };
          Trace.Run_end
            { rounds = 1; messages = 1; dropped = 0; delayed = 0; decided = 2;
              in_flight = 0 }
        ]
      in
      Trace.with_jsonl_file path (fun sink ->
          List.iter sink.Trace.emit evs);
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      Alcotest.(check (list string))
        "file lines are to_json"
        (List.map Trace.to_json evs)
        (List.rev !lines))

(* --- runtime: zero-cost null tracer ------------------------------------- *)

let rng_of u = Splitmix.stream 7L [ u ]

(* Flood the largest id for [k] rounds (same shape as the fault tests),
   plus a probe so the Annotate path is exercised. *)
type flood_state = { best : int; left : int }

let flood_program ~k ~expect : (flood_state, int) Program.t =
  { Program.name = "flood";
    init =
      (fun ctx ->
        ({ best = ctx.Node_ctx.id; left = k },
         [ Program.Probe ("flood.start", ctx.Node_ctx.id);
           Program.Broadcast ctx.Node_ctx.id ]));
    receive =
      (fun _ st inbox ->
        let best = List.fold_left (fun acc (_, v) -> max acc v) st.best inbox in
        if st.left <= 1 then (Program.Output (best = expect), [])
        else
          (Program.Continue { best; left = st.left - 1 },
           [ Program.Broadcast best ])) }

let check_outcome_equal name (a : Runtime.outcome) (b : Runtime.outcome) =
  Alcotest.check Helpers.bool_array (name ^ ": output") a.output b.output;
  Alcotest.check Helpers.bool_array (name ^ ": decided") a.decided b.decided;
  Alcotest.(check int) (name ^ ": rounds") a.rounds b.rounds;
  Alcotest.(check int) (name ^ ": messages") a.messages b.messages;
  Alcotest.(check int) (name ^ ": bits") a.max_message_bits b.max_message_bits;
  Alcotest.(check int) (name ^ ": dropped") a.dropped b.dropped;
  Alcotest.(check int) (name ^ ": delayed") a.delayed b.delayed;
  Alcotest.(check int) (name ^ ": in_flight") a.in_flight b.in_flight;
  Alcotest.check Helpers.bool_array (name ^ ": crashed") a.crashed b.crashed;
  Alcotest.(check bool) (name ^ ": round_stats") true
    (a.round_stats = b.round_stats)

let faulty_plan ~seed =
  Fault.create ~seed ~drop:0.15 ~max_delay:2 ~crashes:[ (2, 4); (5, 1) ] ()

let test_null_tracer_identity () =
  let view = View.full (Trees.path 10) in
  let scenarios =
    [ ("perfect", None); ("faulty", Some (faulty_plan ~seed:3)) ]
  in
  List.iter
    (fun (name, faults) ->
      let run tracer =
        Runtime.run ?faults ?tracer ~rng_of view
          (flood_program ~k:9 ~expect:9)
      in
      let base = run None in
      check_outcome_equal (name ^ " null sink") base (Some Trace.null |> run);
      (* A live sink observes without perturbing. *)
      let sink, _ = Trace.memory () in
      check_outcome_equal (name ^ " memory sink") base (run (Some sink)))
    scenarios

let test_round_stats_sums () =
  let view = View.full (Trees.star 9) in
  List.iter
    (fun faults ->
      let o =
        Runtime.run ?faults ~rng_of view (flood_program ~k:6 ~expect:8)
      in
      let sum f = Array.fold_left (fun a rs -> a + f rs) 0 o.round_stats in
      Alcotest.(check int) "length" (o.Runtime.rounds + 1)
        (Array.length o.Runtime.round_stats);
      Alcotest.(check int) "messages" o.Runtime.messages
        (sum (fun rs -> rs.Runtime.rs_messages));
      Alcotest.(check int) "dropped" o.Runtime.dropped
        (sum (fun rs -> rs.Runtime.rs_dropped));
      Alcotest.(check int) "delayed" o.Runtime.delayed
        (sum (fun rs -> rs.Runtime.rs_delayed));
      let crashed =
        Array.fold_left (fun a b -> if b then a + 1 else a) 0 o.Runtime.crashed
      in
      Alcotest.(check int) "crashed" crashed
        (sum (fun rs -> rs.Runtime.rs_crashed));
      let decided =
        Array.fold_left (fun a b -> if b then a + 1 else a) 0 o.Runtime.decided
      in
      Alcotest.(check int) "decided" decided
        (sum (fun rs -> rs.Runtime.rs_decided)))
    [ None; Some (faulty_plan ~seed:11) ]

(* --- event / outcome reconciliation ------------------------------------- *)

let count_events evs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let k = Trace.kind e in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    evs;
  fun k -> Option.value ~default:0 (Hashtbl.find_opt tbl k)

let check_reconciliation name (o : Runtime.outcome) evs =
  let count = count_events evs in
  Alcotest.(check int) (name ^ ": send = delivered + dropped")
    (o.messages + o.dropped) (count "send");
  (let received =
     List.fold_left
       (fun acc ev ->
         match ev with Trace.Recv { messages; _ } -> acc + messages | _ -> acc)
       0 evs
   in
   Alcotest.(check int) (name ^ ": delivered = received + in_flight")
     o.messages
     (received + o.in_flight));
  Alcotest.(check int) (name ^ ": drop") o.dropped (count "drop");
  Alcotest.(check int) (name ^ ": delay") o.delayed (count "delay");
  Alcotest.(check int) (name ^ ": crash")
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 o.crashed)
    (count "crash");
  Alcotest.(check int) (name ^ ": decide")
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 o.decided)
    (count "decide");
  Alcotest.(check int) (name ^ ": round_end")
    (Array.length o.round_stats) (count "round_end");
  Alcotest.(check int) (name ^ ": run markers") 2
    (count "run_begin" + count "run_end")

let test_event_reconciliation_flood () =
  let view = View.full (Trees.path 12) in
  let sink, events = Trace.memory () in
  let o =
    Runtime.run
      ~faults:(faulty_plan ~seed:5)
      ~tracer:sink ~rng_of view
      (flood_program ~k:10 ~expect:11)
  in
  Alcotest.(check bool) "something dropped" true (o.Runtime.dropped > 0);
  Alcotest.(check bool) "something delayed" true (o.Runtime.delayed > 0);
  check_reconciliation "flood" o (events ())

let test_event_reconciliation_robust_fairtree () =
  let view = View.full (Helpers.random_tree ~seed:21 ~n:24) in
  let sink, events = Trace.memory () in
  let o =
    Fairmis.Robust.run_fair_tree
      ~faults:(Fault.create ~seed:9 ~drop:0.1 ())
      ~tracer:sink view (Rand_plan.make 4)
  in
  Alcotest.(check bool) "something dropped" true (o.Mis_sim.Runtime.dropped > 0);
  check_reconciliation "robust fairtree" o (events ())

(* --- golden JSONL pin --------------------------------------------------- *)

(* FairTree (γ = 1) on the 4-path with plan seed 5: the full event stream
   is pinned by count, per-kind counts, the first and last line, and an
   MD5 of the serialized JSONL. Any change to the runtime's emission
   order, the event schema, or the JSON encoding shows up here. *)
let test_golden_fairtree_jsonl () =
  let view = View.full (Trees.path 4) in
  let sink, events = Trace.memory () in
  let o =
    Fairmis.Fair_tree_distributed.run ~gamma:1 ~tracer:sink view
      (Rand_plan.make 5)
  in
  Alcotest.(check int) "rounds" 11 o.Mis_sim.Runtime.rounds;
  Alcotest.(check int) "messages" 51 o.Mis_sim.Runtime.messages;
  Alcotest.(check int) "bits" 5 o.Mis_sim.Runtime.max_message_bits;
  let evs = events () in
  Alcotest.(check int) "events" 128 (List.length evs);
  let count = count_events evs in
  List.iter
    (fun (kind, expected) ->
      Alcotest.(check int) ("count " ^ kind) expected (count kind))
    [ ("run_begin", 1); ("round_begin", 12); ("round_end", 12); ("send", 51);
      ("recv", 35); ("decide", 4); ("annotate", 12); ("run_end", 1);
      ("drop", 0); ("delay", 0); ("crash", 0) ];
  let lines = List.map Trace.to_json evs in
  Alcotest.(check string) "first line"
    {|{"type":"run_begin","program":"fair_tree","n":4,"active":4}|}
    (List.hd lines);
  Alcotest.(check string) "last line"
    {|{"type":"run_end","rounds":11,"messages":51,"dropped":0,"delayed":0,"decided":4,"in_flight":0}|}
    (List.nth lines (List.length lines - 1));
  let all = String.concat "\n" lines ^ "\n" in
  Alcotest.(check string) "stream md5" "78ff3dde3614b6270cf7d71987d7ba36"
    (Digest.to_hex (Digest.string all))

(* Determinism: two identical runs serialize identically. *)
let test_trace_deterministic () =
  let capture () =
    let view = View.full (Trees.star 6) in
    let sink, events = Trace.memory () in
    ignore
      (Fairmis.Luby.run_distributed ~tracer:sink view (Rand_plan.make 2));
    String.concat "\n" (List.map Trace.to_json (events ()))
  in
  Alcotest.(check string) "same bytes" (capture ()) (capture ())

(* --- sparkline ---------------------------------------------------------- *)

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Mis_exp.Ascii_plot.sparkline [||]);
  Alcotest.(check string) "flat zero" "\xe2\x96\x81\xe2\x96\x81"
    (Mis_exp.Ascii_plot.sparkline [| 0.; 0. |]);
  Alcotest.(check string) "ramp"
    "\xe2\x96\x81\xe2\x96\x85\xe2\x96\x88"
    (Mis_exp.Ascii_plot.sparkline [| 0.; 0.6; 1. |]);
  (* Max-pooling: a spike survives downsampling. *)
  let v = Array.make 100 1. in
  v.(57) <- 10.;
  let s = Mis_exp.Ascii_plot.sparkline ~width:10 v in
  Alcotest.(check int) "10 columns" 30 (String.length s);
  Alcotest.(check bool) "spike survives" true
    (let full = "\xe2\x96\x88" in
     let rec contains i =
       i + 3 <= String.length s && (String.sub s i 3 = full || contains (i + 3))
     in
     contains 0)

let suite =
  [ ( "obs",
      [ Alcotest.test_case "json values" `Quick test_json_values;
        Alcotest.test_case "json float round-trip" `Quick
          test_json_float_roundtrip;
        Alcotest.test_case "metrics counter/gauge" `Quick
          test_metrics_counter_gauge;
        Alcotest.test_case "metrics kind mismatch" `Quick
          test_metrics_kind_mismatch;
        Alcotest.test_case "metrics histogram" `Quick test_metrics_histogram;
        Alcotest.test_case "metrics timer" `Quick test_metrics_timer;
        Alcotest.test_case "metrics snapshot find" `Quick
          test_metrics_snapshot_find;
        Alcotest.test_case "null and tee" `Quick test_null_and_tee;
        Alcotest.test_case "memory ring" `Quick test_memory_ring;
        Alcotest.test_case "counting sink" `Quick test_counting_sink;
        Alcotest.test_case "jsonl file" `Quick test_jsonl_file;
        Alcotest.test_case "null tracer identity" `Quick
          test_null_tracer_identity;
        Alcotest.test_case "round stats sums" `Quick test_round_stats_sums;
        Alcotest.test_case "reconciliation: flood" `Quick
          test_event_reconciliation_flood;
        Alcotest.test_case "reconciliation: robust fairtree" `Quick
          test_event_reconciliation_robust_fairtree;
        Alcotest.test_case "golden fairtree jsonl" `Quick
          test_golden_fairtree_jsonl;
        Alcotest.test_case "trace deterministic" `Quick
          test_trace_deterministic;
        Alcotest.test_case "sparkline" `Quick test_sparkline ] ) ]
