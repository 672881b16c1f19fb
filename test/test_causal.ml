(* Tests for the causal critical-path analyzer: path/termination
   invariants (QCheck across random topologies and programs), waste
   accounting through Replay, the raw Prof span records, and the two
   Perfetto exports (schema-checked and round-tripped through
   Json.parse). *)

module View = Mis_graph.View
module Trees = Mis_workload.Trees
module Fault = Mis_sim.Fault
module Rand_plan = Fairmis.Rand_plan
module Json = Mis_obs.Json
module Trace = Mis_obs.Trace
module Replay = Mis_obs.Replay
module Causal = Mis_obs.Causal
module Prof = Mis_obs.Prof

let analyze_ok events =
  match Causal.analyze events with
  | Ok t -> t
  | Error errs -> Alcotest.failf "analyze failed: %s" (String.concat "; " errs)

(* The replay suite's golden FairTree run: path of 4 nodes, seed 5. *)
let golden_run () =
  let view = View.full (Trees.path 4) in
  let sink, events = Trace.memory () in
  let o =
    Fairmis.Fair_tree_distributed.run ~gamma:1 ~tracer:sink view
      (Rand_plan.make 5)
  in
  (o, events ())

(* --- structural invariants ---------------------------------------------- *)

(* Independent edge check: net undelayed deliveries per (src, dst, send
   round), recomputed the simple way. *)
let delivery_table events =
  let tbl = Hashtbl.create 64 in
  let bump k by =
    Hashtbl.replace tbl k (by + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Send { round; src; dst } -> bump (round, src, dst) 1
      | Trace.Drop { round; src; dst; _ } -> bump (round, src, dst) (-1)
      | Trace.Delay { round; src; dst; _ } -> bump (round, src, dst) (-1)
      | _ -> ())
    events;
  tbl

let check_path_shape name events (t : Causal.t) =
  let deliveries = delivery_table events in
  Array.iteri
    (fun i (st : Causal.step) ->
      (* Acyclicity in the strongest form: step i sits at round i, so
         every edge advances time by exactly one round. *)
      Alcotest.(check int) (name ^ ": step round") i st.Causal.round;
      match st.Causal.via with
      | Causal.Start ->
        Alcotest.(check int) (name ^ ": Start only at 0") 0 i
      | Causal.Local ->
        Alcotest.(check int)
          (name ^ ": local step stays on node")
          t.Causal.path.(i - 1).Causal.node st.Causal.node
      | Causal.Delivery { src } ->
        Alcotest.(check int)
          (name ^ ": delivery source is previous step")
          t.Causal.path.(i - 1).Causal.node src;
        let net =
          Option.value ~default:0
            (Hashtbl.find_opt deliveries (i - 1, src, st.Causal.node))
        in
        Alcotest.(check bool)
          (name ^ ": delivery edge exists in the stream")
          true (net > 0))
    t.Causal.path

let run_traced alg view ~seed =
  let traced =
    match Mis_exp.Runners.find_traced alg with
    | Ok (_, traced) -> traced
    | Error e -> Alcotest.fail e
  in
  let sink, events = Trace.memory ~capacity:2_000_000 () in
  let o = traced view ~seed ~tracer:sink in
  (o, events ())

(* On a perfect run the critical path has exactly one step per round:
   its length equals the termination round equals Replay's round count. *)
let test_perfect_run_length_qcheck =
  Helpers.qtest ~count:40 "critpath length = rounds on perfect runs"
    QCheck.(
      triple (int_range 1 40) (int_range 0 10_000)
        (oneofl [ "luby"; "fairtree" ]))
    (fun (n, seed, alg) ->
      let view = View.full (Helpers.random_tree ~seed ~n) in
      let _, events = run_traced alg view ~seed:(seed + 1) in
      let t = analyze_ok events in
      let s = t.Causal.summary in
      if not s.Replay.complete then
        QCheck.Test.fail_reportf "run did not complete";
      check_path_shape alg events t;
      if Causal.length t <> s.Replay.rounds then
        QCheck.Test.fail_reportf "length %d <> rounds %d" (Causal.length t)
          s.Replay.rounds;
      if t.Causal.termination <> s.Replay.rounds then
        QCheck.Test.fail_reportf "termination %d <> rounds %d"
          t.Causal.termination s.Replay.rounds;
      (* phase blame covers every moving step *)
      let blamed =
        List.fold_left (fun a (_, c) -> a + c) 0 (Causal.blame t events)
      in
      if blamed <> Causal.length t then
        QCheck.Test.fail_reportf "blame sums to %d, path length %d" blamed
          (Causal.length t);
      (* perfect runs waste nothing on faults *)
      t.Causal.waste.Causal.w_to_crashed = 0
      && t.Causal.waste.Causal.w_critical_drops = 0)

(* Under faults the path can only shorten: crashed nodes never decide
   and drops prune delivery edges, but program order still reaches the
   terminal decide. *)
let test_faulty_run_bounds () =
  let view = View.full (Helpers.random_tree ~seed:11 ~n:40) in
  let sink, events = Trace.memory ~capacity:2_000_000 () in
  let o =
    Fairmis.Robust.run_fair_tree ~tracer:sink
      ~faults:
        (Fault.create ~seed:3 ~drop:0.1 ~max_delay:3
           ~crashes:[ (7, 2); (30, 5) ] ())
      view (Rand_plan.make 21)
  in
  let t = analyze_ok (events ()) in
  let s = t.Causal.summary in
  Alcotest.(check bool) "faults fired" true
    (s.Replay.dropped > 0 && s.Replay.delayed > 0 && s.Replay.crashed > 0);
  check_path_shape "faulty" (events ()) t;
  Alcotest.(check bool) "length <= rounds" true
    (Causal.length t <= s.Replay.rounds);
  Alcotest.(check int) "rounds agree with outcome" o.Mis_sim.Runtime.rounds
    s.Replay.rounds;
  (* waste classification closes conservation exactly *)
  Alcotest.(check int) "waste partitions in_flight" s.Replay.in_flight
    (s.Replay.wasted_to_decided + s.Replay.wasted_to_crashed
   + s.Replay.in_flight_end);
  (* crashed nodes have no slack entry *)
  Array.iteri
    (fun u cr ->
      if cr <= s.Replay.rounds then
        Alcotest.(check int)
          (Printf.sprintf "crashed node %d has slack -1" u)
          (-1) (Causal.slack t).(u))
    s.Replay.crash_round

(* --- golden pin ---------------------------------------------------------- *)

let test_golden_critpath () =
  let o, events = golden_run () in
  let t = analyze_ok events in
  Alcotest.(check int) "termination" 11 t.Causal.termination;
  Alcotest.(check int) "length" 11 (Causal.length t);
  Alcotest.(check int) "rounds agree" o.Mis_sim.Runtime.rounds
    t.Causal.termination;
  Alcotest.(check int) "path steps" 12 (Array.length t.Causal.path);
  Alcotest.(check bool) "starts with Start" true
    (t.Causal.path.(0).Causal.via = Causal.Start);
  Alcotest.(check int) "delivery + local = length" 11
    (t.Causal.delivery_steps + t.Causal.local_steps);
  (* Pinned decomposition: the golden FairTree run's forcing chain. *)
  Alcotest.(check int) "delivery steps" 8 t.Causal.delivery_steps;
  Alcotest.(check int) "local steps" 3 t.Causal.local_steps;
  Alcotest.(check int) "terminal node" 0 t.Causal.terminal;
  Alcotest.(check (list (pair string int)))
    "blame"
    [ ("fairtree.i2", 5); ("fairtree.i1", 3); ("fairtree.i4", 2);
      ("(none)", 1) ]
    (Causal.blame t events);
  Alcotest.(check int) "no waste" 0
    (t.Causal.waste.Causal.w_to_decided + t.Causal.waste.Causal.w_to_crashed
   + t.Causal.waste.Causal.w_run_end);
  (* The render is stable text over pinned data. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let rendered = Causal.render t events in
  Alcotest.(check bool) "render mentions termination" true
    (contains rendered "termination: round 11")

(* decide_path of the terminal is the global path; decide_path of an
   undecided node is empty. *)
let test_decide_path () =
  let _, events = golden_run () in
  let t = analyze_ok events in
  Alcotest.(check bool) "terminal decide_path = global path" true
    (Causal.decide_path t events t.Causal.terminal = t.Causal.path);
  Alcotest.(check bool) "out-of-range node" true
    (Causal.decide_path t events 99 = [||]);
  (* every decided node's path ends at its decide round *)
  Array.iteri
    (fun u dr ->
      if dr >= 0 then begin
        let p = Causal.decide_path t events u in
        Alcotest.(check int)
          (Printf.sprintf "node %d path length" u)
          (dr + 1) (Array.length p);
        Alcotest.(check int)
          (Printf.sprintf "node %d path terminal" u)
          u p.(dr).Causal.node
      end)
    t.Causal.summary.Replay.decide_round

(* --- waste accounting on a hand-built stream ----------------------------- *)

let hand_stream =
  [ Trace.Run_begin { program = "hand"; n = 2; active = 2 };
    Trace.Round_begin { round = 0 };
    Trace.Send { round = 0; src = 0; dst = 1 };
    Trace.Send { round = 0; src = 1; dst = 0 };
    Trace.Round_end
      { round = 0; messages = 2; dropped = 0; delayed = 0; decided = 0;
        crashed = 0 };
    Trace.Round_begin { round = 1 };
    Trace.Recv { round = 1; node = 0; messages = 1 };
    Trace.Recv { round = 1; node = 1; messages = 1 };
    Trace.Send { round = 1; src = 0; dst = 1 };
    Trace.Decide { round = 1; node = 1; in_mis = true };
    Trace.Round_end
      { round = 1; messages = 1; dropped = 0; delayed = 0; decided = 1;
        crashed = 0 };
    Trace.Round_begin { round = 2 };
    Trace.Decide { round = 2; node = 0; in_mis = false };
    Trace.Round_end
      { round = 2; messages = 0; dropped = 0; delayed = 0; decided = 1;
        crashed = 0 };
    Trace.Run_end
      { rounds = 2; messages = 3; dropped = 0; delayed = 0; decided = 2;
        in_flight = 1 } ]

let test_wasted_to_decided () =
  let s =
    match Replay.replay hand_stream with
    | Ok s -> s
    | Error errs -> Alcotest.failf "replay: %s" (String.concat "; " errs)
  in
  Alcotest.(check int) "in flight" 1 s.Replay.in_flight;
  Alcotest.(check int) "wasted to decided" 1 s.Replay.wasted_to_decided;
  Alcotest.(check int) "wasted to crashed" 0 s.Replay.wasted_to_crashed;
  Alcotest.(check int) "in flight at end" 0 s.Replay.in_flight_end;
  let t = analyze_ok hand_stream in
  Alcotest.(check int) "termination" 2 t.Causal.termination;
  Alcotest.(check int) "terminal" 0 t.Causal.terminal;
  Alcotest.(check int) "waste mirrors summary" 1
    t.Causal.waste.Causal.w_to_decided;
  (* the chain: node 1's round-0 send forces node 0's round 1, then node
     0 steps locally to its decide *)
  (match t.Causal.path with
  | [| { Causal.node = 1; round = 0; via = Causal.Start };
       { Causal.node = 0; round = 1; via = Causal.Delivery { src = 1 } };
       { Causal.node = 0; round = 2; via = Causal.Local } |] ->
    ()
  | p ->
    Alcotest.failf "unexpected path (%d steps)" (Array.length p));
  Alcotest.(check (list (pair int int)))
    "slack: node 1 decided one round early"
    [ (0, 0); (1, 1) ]
    (Array.to_list (Array.mapi (fun u s -> (u, s)) (Causal.slack t)))

(* --- Prof span records --------------------------------------------------- *)

let test_prof_span_records () =
  let p = Prof.create ~record_spans:true () in
  Prof.span p "outer" (fun () ->
      Prof.span p "inner" (fun () -> ignore (Sys.opaque_identity 1)));
  Prof.span p "outer" (fun () -> ());
  (match Prof.spans p with
  | [ inner; first; second ] ->
    Alcotest.(check string) "nested path" "outer/inner" inner.Prof.sr_name;
    Alcotest.(check int) "nested depth" 1 inner.Prof.sr_depth;
    Alcotest.(check string) "outer path" "outer" first.Prof.sr_name;
    Alcotest.(check int) "outer depth" 0 first.Prof.sr_depth;
    Alcotest.(check string) "repeat keeps own record" "outer"
      second.Prof.sr_name;
    Alcotest.(check bool) "timestamps ordered" true
      (first.Prof.sr_begin <= inner.Prof.sr_begin
      && inner.Prof.sr_end <= first.Prof.sr_end
      && first.Prof.sr_end <= second.Prof.sr_end);
    Alcotest.(check int) "domain id" (Domain.self () :> int)
      inner.Prof.sr_domain
  | l -> Alcotest.failf "expected 3 records, got %d" (List.length l));
  Alcotest.(check int) "aggregates unaffected: outer has 2 calls" 2
    (match Prof.tree p with
    | [ s ] -> s.Prof.s_calls
    | _ -> -1);
  Prof.reset p;
  Alcotest.(check int) "reset drops records" 0 (List.length (Prof.spans p))

let test_prof_recording_off_by_default () =
  let p = Prof.create () in
  Alcotest.(check bool) "not recording" false (Prof.recording p);
  Prof.span p "a" (fun () -> ());
  Alcotest.(check int) "no records" 0 (List.length (Prof.spans p));
  Prof.set_recording p true;
  Prof.span p "a" (fun () -> ());
  Alcotest.(check int) "records after enabling" 1 (List.length (Prof.spans p))

(* --- Perfetto exports ---------------------------------------------------- *)

let parse_ok what j =
  match Json.parse j with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s did not parse: %s" what e

let events_of v =
  match Json.find v "traceEvents" with
  | Some (Json.Arr l) -> l
  | _ -> Alcotest.fail "no traceEvents"

let test_protocol_timeline () =
  let _, events = golden_run () in
  let t = analyze_ok events in
  let v = parse_ok "protocol timeline" (Causal.protocol_timeline t events) in
  (match Causal.validate_timeline v with
  | Ok () -> ()
  | Error e -> Alcotest.failf "schema: %s" e);
  let evs = events_of v in
  let phases ph =
    List.length
      (List.filter
         (fun e -> Json.find e "ph" = Some (Json.Str ph))
         evs)
  in
  (* one flow chain: one start, one finish, length-1 steps in between *)
  Alcotest.(check int) "flow start" 1 (phases "s");
  Alcotest.(check int) "flow finish" 1 (phases "f");
  Alcotest.(check int) "flow steps" (Causal.length t - 1) (phases "t");
  (* one slice per alive (node, round) vertex: 4 nodes, rounds 0..decide *)
  let slices = phases "X" in
  let expected =
    Array.fold_left (fun a dr -> a + dr + 1) 0
      t.Causal.summary.Replay.decide_round
  in
  Alcotest.(check int) "slices cover alive vertices" expected slices;
  (* decide instants, one per node *)
  Alcotest.(check int) "decide instants" 4 (phases "i")

let test_execution_timeline () =
  let p = Prof.create ~record_spans:true () in
  Prof.span p "parallel.chunk" (fun () ->
      Prof.span p "trial" (fun () -> ignore (Sys.opaque_identity 2)));
  let v =
    parse_ok "execution timeline" (Causal.execution_timeline (Prof.spans p))
  in
  (match Causal.validate_timeline v with
  | Ok () -> ()
  | Error e -> Alcotest.failf "schema: %s" e);
  let evs = events_of v in
  let names =
    List.filter_map
      (fun e ->
        if Json.find e "ph" = Some (Json.Str "X") then
          match Json.find e "name" with
          | Some (Json.Str s) -> Some s
          | _ -> None
        else None)
      evs
  in
  Alcotest.(check (list string))
    "slice names in begin order"
    [ "parallel.chunk"; "parallel.chunk/trial" ]
    (List.sort compare names);
  (* ts is rebased: some slice starts at 0 *)
  let ts0 =
    List.exists
      (fun e ->
        Json.find e "ph" = Some (Json.Str "X")
        && (match Json.find e "ts" with
           | Some t -> Json.get_float t = Some 0.
           | None -> false))
      evs
  in
  Alcotest.(check bool) "rebased to 0" true ts0

let test_validate_timeline_rejects () =
  let reject what j =
    match Causal.validate_timeline (parse_ok what j) with
    | Ok () -> Alcotest.failf "%s unexpectedly validated" what
    | Error _ -> ()
  in
  reject "no traceEvents" {|{"foo":1}|};
  reject "missing ts"
    {|{"traceEvents":[{"ph":"X","pid":1,"name":"a","dur":1}]}|};
  reject "missing dur"
    {|{"traceEvents":[{"ph":"X","pid":1,"name":"a","ts":0}]}|};
  reject "flow without id"
    {|{"traceEvents":[{"ph":"s","pid":1,"name":"a","ts":0}]}|};
  reject "no pid" {|{"traceEvents":[{"ph":"M","name":"a"}]}|}

let suite =
  [ ( "causal",
      [ Alcotest.test_case "golden critpath" `Quick test_golden_critpath;
        Alcotest.test_case "decide paths" `Quick test_decide_path;
        test_perfect_run_length_qcheck;
        Alcotest.test_case "faulty-run bounds" `Quick test_faulty_run_bounds;
        Alcotest.test_case "wasted-to-decided stream" `Quick
          test_wasted_to_decided;
        Alcotest.test_case "prof span records" `Quick test_prof_span_records;
        Alcotest.test_case "prof recording off by default" `Quick
          test_prof_recording_off_by_default;
        Alcotest.test_case "protocol timeline" `Quick test_protocol_timeline;
        Alcotest.test_case "execution timeline" `Quick test_execution_timeline;
        Alcotest.test_case "timeline schema rejects" `Quick
          test_validate_timeline_rejects ] ) ]
