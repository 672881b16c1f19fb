(* Parse a serialized trace back into typed events and validate the
   runtime's invariants against it. See replay.mli for the contract. *)

let spf = Printf.sprintf

(* --- event parsing ------------------------------------------------------ *)

let reason_of_string = function
  | "random" -> Some Trace.Random
  | "adversary" -> Some Trace.Adversary
  | "crashed_dst" -> Some Trace.Crashed_dst
  | _ -> None

let event_of_json v =
  let field name get =
    match Option.bind (Json.find v name) get with
    | Some x -> Ok x
    | None -> Error (spf "missing or mistyped field %S" name)
  in
  let ( let* ) = Result.bind in
  let int name = field name Json.get_int in
  let str name = field name Json.get_string in
  match Option.bind (Json.find v "type") Json.get_string with
  | None -> Error "missing or mistyped field \"type\""
  | Some kind -> (
    match kind with
    | "run_begin" ->
      let* program = str "program" in
      let* n = int "n" in
      let* active = int "active" in
      Ok (Trace.Run_begin { program; n; active })
    | "round_begin" ->
      let* round = int "round" in
      Ok (Trace.Round_begin { round })
    | "round_end" ->
      let* round = int "round" in
      let* messages = int "messages" in
      let* dropped = int "dropped" in
      let* delayed = int "delayed" in
      let* decided = int "decided" in
      let* crashed = int "crashed" in
      Ok (Trace.Round_end { round; messages; dropped; delayed; decided; crashed })
    | "send" ->
      let* round = int "round" in
      let* src = int "src" in
      let* dst = int "dst" in
      Ok (Trace.Send { round; src; dst })
    | "drop" ->
      let* round = int "round" in
      let* src = int "src" in
      let* dst = int "dst" in
      let* reason = str "reason" in
      let* reason =
        match reason_of_string reason with
        | Some r -> Ok r
        | None -> Error (spf "unknown drop reason %S" reason)
      in
      Ok (Trace.Drop { round; src; dst; reason })
    | "delay" ->
      let* round = int "round" in
      let* src = int "src" in
      let* dst = int "dst" in
      let* delay = int "delay" in
      Ok (Trace.Delay { round; src; dst; delay })
    | "recv" ->
      let* round = int "round" in
      let* node = int "node" in
      let* messages = int "messages" in
      Ok (Trace.Recv { round; node; messages })
    | "decide" ->
      let* round = int "round" in
      let* node = int "node" in
      let* in_mis = field "in_mis" Json.get_bool in
      Ok (Trace.Decide { round; node; in_mis })
    | "crash" ->
      let* round = int "round" in
      let* node = int "node" in
      Ok (Trace.Crash { round; node })
    | "annotate" ->
      let* round = int "round" in
      let* node = int "node" in
      let* key = str "key" in
      let* value = int "value" in
      Ok (Trace.Annotate { round; node; key; value })
    | "run_end" ->
      let* rounds = int "rounds" in
      let* messages = int "messages" in
      let* dropped = int "dropped" in
      let* delayed = int "delayed" in
      let* decided = int "decided" in
      let* in_flight = int "in_flight" in
      Ok
        (Trace.Run_end
           { rounds; messages; dropped; delayed; decided; in_flight })
    | kind -> Error (spf "unknown event type %S" kind))

let parse_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok v -> event_of_json v

(* Each line is decoded as soon as it is read, so a malformed line stops
   the read there and only the events before it are ever held. *)
let of_jsonl path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let reader = Line_reader.create ic in
        let rec go lineno acc =
          match Line_reader.next reader with
          | Line_reader.Eof -> Ok (List.rev acc)
          | Line_reader.Too_long ->
            Error
              (spf "%s:%d: line longer than %d bytes" path lineno
                 Line_reader.max_line_bytes)
          | Line_reader.Line line when String.trim line = "" -> go (lineno + 1) acc
          | Line_reader.Line line -> (
            match parse_line line with
            | Ok e -> go (lineno + 1) (e :: acc)
            | Error e -> Error (spf "%s:%d: %s" path lineno e))
        in
        go 1 [])

(* --- replay ------------------------------------------------------------- *)

type round_stat = {
  r_messages : int;
  r_dropped : int;
  r_delayed : int;
  r_decided : int;
  r_crashed : int;
}

type summary = {
  program : string;
  n : int;
  active : int;
  rounds : int;
  sends : int;
  delivered : int;
  dropped : int;
  delayed : int;
  decided : int;
  crashed : int;
  received : int;
  in_flight : int;
  annotations : int;
  complete : bool;
  wasted_to_decided : int;
  wasted_to_crashed : int;
  in_flight_end : int;
  round_stats : round_stat array;
  decide_round : int array;
  in_mis : bool array;
  crash_round : int array;
}

(* The checks mirror Runtime.run's emission discipline:
   - stream shape: Run_begin, then per round r = 0.. a Round_begin r /
     Round_end r pair bracketing that round's events, then Run_end;
   - per-round accounting: Round_end's counters equal the event counts of
     the round (messages = sends - drops);
   - totals: Run_end's counters equal the event sums;
   - message conservation: every Recv is fed by previously delivered
     sends — a send at round s without a delay event is delivered at
     s + 1, with a Delay {delay = d} at s + 1 + d; the inbox size a Recv
     reports must equal the number of messages delivered to that node at
     that round, and deliveries may go unreceived only when the node has
     already decided or the run ended first;
   - crash silence: a crashed node emits no send/recv/decide/annotate at
     or after its crash round, and receives nothing from then on;
   - decides partition: each node decides at most once, never after
     crashing, and nodes are within [0, n). *)

type check = {
  mutable errors : string list;  (* newest first *)
  mutable error_count : int;
  limit : int;
}

let err ck fmt =
  Printf.ksprintf
    (fun msg ->
      ck.error_count <- ck.error_count + 1;
      if ck.error_count <= ck.limit then ck.errors <- msg :: ck.errors)
    fmt

type delivery_index = {
  di_slices : Trace.event list array;
  di_dirty : bool array;
  di_drops : (int * int) list;
}

let empty_index = { di_slices = [||]; di_dirty = [||]; di_drops = [] }

(* Sender queries scan the round's slice on demand. A materialized
   (round x node) matrix costs (rounds + 1) * n words of allocation per
   replay — the resulting GC pressure alone blew the analyzer's <5%
   overhead budget — while the critical-path backtrack reads exactly one
   cell per round, so the whole walk costs at most one cheap pass over
   the stream. The tie-break among same-round senders is stream order:
   the runtime emits sends in slot order within a round, so on full
   static views this is the smallest sender — and a fault-free round
   can stop scanning at the first match rather than sweep the whole
   slice for a minimum. Rounds with a drop or delay (flagged in
   [di_dirty]) pay for per-sender net accounting. *)
let index_first_sender idx ~round ~dst =
  if
    round < 0
    || round >= Array.length idx.di_slices
    || round >= Array.length idx.di_dirty
  then max_int
  else if not idx.di_dirty.(round) then begin
    let rec scan = function
      | [] | Trace.Round_end _ :: _ -> max_int
      | Trace.Send { src; dst = d; _ } :: rest ->
        if d = dst then src else scan rest
      | _ :: rest -> scan rest
    in
    scan idx.di_slices.(round)
  end
  else begin
    (* Net accounting for this destination only: a fault may have
       removed the first sender's only message. A second scan then
       recovers stream order among the surviving senders. *)
    let net = Hashtbl.create 8 in
    let bump src by =
      Hashtbl.replace net src
        (by + Option.value ~default:0 (Hashtbl.find_opt net src))
    in
    let rec scan = function
      | [] | Trace.Round_end _ :: _ -> ()
      | ev :: rest ->
        (match ev with
        | Trace.Send { src; dst = d; _ } when d = dst -> bump src 1
        | Trace.Drop { src; dst = d; _ } when d = dst -> bump src (-1)
        | Trace.Delay { src; dst = d; _ } when d = dst -> bump src (-1)
        | _ -> ());
        scan rest
    in
    scan idx.di_slices.(round);
    let rec first = function
      | [] | Trace.Round_end _ :: _ -> max_int
      | Trace.Send { src; dst = d; _ } :: rest ->
        if d = dst && Option.value ~default:0 (Hashtbl.find_opt net src) > 0
        then src
        else first rest
      | _ :: rest -> first rest
    in
    first idx.di_slices.(round)
  end

let replay_core ~index ?(max_errors = 20) events =
  let ck = { errors = []; error_count = 0; limit = max_errors } in
  (* Pass 1: stream shape and the header. *)
  let program = ref "" in
  let n = ref 0 in
  let active = ref 0 in
  (match events with
  | Trace.Run_begin { program = p; n = n'; active = a } :: _ ->
    program := p;
    n := n';
    active := a
  | _ -> err ck "stream must start with run_begin");
  let run_end = ref None in
  let in_round = ref None in
  let last_round = ref (-1) in
  let seen_run_end = ref false in
  let check_in_round ev round =
    match !in_round with
    | Some r when r = round -> ()
    | Some r ->
      err ck "%s event carries round %d inside round %d" (Trace.kind ev) round r
    | None ->
      err ck "%s event (round %d) outside any round" (Trace.kind ev) round
  in
  List.iteri
    (fun i ev ->
      if !seen_run_end then err ck "event after run_end (position %d)" i;
      match ev with
      | Trace.Run_begin _ ->
        if i > 0 then err ck "run_begin not at the start (position %d)" i
      | Trace.Run_end _ ->
        if !in_round <> None then err ck "run_end inside an open round";
        seen_run_end := true;
        run_end := Some ev
      | Trace.Round_begin { round } ->
        if !in_round <> None then
          err ck "round_begin %d inside an open round" round;
        if round <> !last_round + 1 then
          err ck "round_begin %d after round %d (rounds must be consecutive)"
            round !last_round;
        in_round := Some round
      | Trace.Round_end { round; _ } ->
        (match !in_round with
        | Some r when r = round -> ()
        | _ -> err ck "round_end %d without a matching round_begin" round);
        in_round := None;
        last_round := max !last_round round
      | Trace.Send { round; _ }
      | Trace.Drop { round; _ }
      | Trace.Delay { round; _ }
      | Trace.Recv { round; _ }
      | Trace.Decide { round; _ }
      | Trace.Crash { round; _ }
      | Trace.Annotate { round; _ } ->
        check_in_round ev round)
    events;
  if !in_round <> None then err ck "stream ends inside an open round";
  if not !seen_run_end then err ck "stream must end with run_end";
  let rounds = !last_round in
  let n = max 0 !n in
  (* Pass 2: counts, per-node state, delivery schedule. *)
  let node_ok u = u >= 0 && u < n in
  let check_node what round u =
    if not (node_ok u) then
      err ck "round %d: %s names node %d outside [0, %d)" round what u n
  in
  let decide_round = Array.make n (-1) in
  let in_mis = Array.make n false in
  let crash_round = Array.make n max_int in
  let sends = ref 0 in
  let drops = ref 0 in
  let delays = ref 0 in
  let decides = ref 0 in
  let crashes = ref 0 in
  let received = ref 0 in
  let annotations = ref 0 in
  let round_stats = ref [] in
  (* Messages in flight: (delivery_round, dst) -> pending count. *)
  let pending : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let schedule ~delivery ~dst by =
    let key = (delivery, dst) in
    let c = Option.value ~default:0 (Hashtbl.find_opt pending key) in
    Hashtbl.replace pending key (c + by)
  in
  (* Per round: undelayed deliveries = sends - drops - delays of that
     round, scheduled at round + 1; each delay reschedules one of them. *)
  let r_sends = ref 0 in
  let r_drops = ref 0 in
  let r_delays = ref 0 in
  let r_decides = ref 0 in
  let r_crashes = ref 0 in
  (* Round-local sends per destination, minus drops, minus delays; the
     remainder is delivered next round. *)
  let r_to : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let bump tbl key by =
    let c = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key (c + by)
  in
  (* Delivery-index state (only touched when [index] is set). The index
     is just bookmarks: per round the event-list suffix after its begin
     marker plus a had-faults flag — sender lookups scan the slice
     lazily (see [index_first_sender]), so indexing adds no per-send work
     and only a handful of words of allocation. *)
  let idx_slices = ref [] in
  let idx_dirtys = ref [] in
  let idx_dirty = ref false in
  let idx_drops = ref [] in
  let handle rest ev =
      match ev with
      | Trace.Run_begin _ | Trace.Run_end _ -> ()
      | Trace.Round_begin _ ->
        if index then begin
          idx_slices := rest :: !idx_slices;
          idx_dirty := false
        end
      | Trace.Send { round; src; dst } ->
        check_node "send src" round src;
        check_node "send dst" round dst;
        incr sends;
        incr r_sends;
        if node_ok src && crash_round.(src) <= round then
          err ck "round %d: send from node %d, which crashed at round %d"
            round src crash_round.(src);
        if node_ok src && decide_round.(src) >= 0 && decide_round.(src) < round
        then
          err ck "round %d: send from node %d, which decided at round %d"
            round src decide_round.(src);
        if node_ok dst then bump r_to dst 1
      | Trace.Drop { round; dst; _ } ->
        check_node "drop dst" round dst;
        incr drops;
        incr r_drops;
        if node_ok dst then bump r_to dst (-1);
        if index then begin
          idx_dirty := true;
          idx_drops := (round, dst) :: !idx_drops
        end
      | Trace.Delay { round; dst; delay; _ } ->
        check_node "delay dst" round dst;
        if delay < 1 then err ck "round %d: delay event with delay %d < 1" round delay;
        incr delays;
        incr r_delays;
        if node_ok dst then begin
          bump r_to dst (-1);
          schedule ~delivery:(round + 1 + delay) ~dst 1
        end;
        if index then idx_dirty := true
      | Trace.Recv { round; node; messages } ->
        check_node "recv" round node;
        received := !received + messages;
        if messages < 1 then
          err ck "round %d: recv at node %d with %d messages" round node
            messages;
        if node_ok node then begin
          if crash_round.(node) <= round then
            err ck "round %d: recv at node %d, which crashed at round %d" round
              node crash_round.(node);
          if decide_round.(node) >= 0 && decide_round.(node) < round then
            err ck "round %d: recv at node %d, which decided at round %d" round
              node decide_round.(node);
          let key = (round, node) in
          let expected =
            Option.value ~default:0 (Hashtbl.find_opt pending key)
          in
          if expected <> messages then
            err ck
              "round %d: recv at node %d reports %d messages but %d were \
               delivered"
              round node messages expected;
          Hashtbl.remove pending key
        end
      | Trace.Decide { round; node; in_mis = b } ->
        check_node "decide" round node;
        incr decides;
        incr r_decides;
        if node_ok node then begin
          if decide_round.(node) >= 0 then
            err ck "round %d: node %d decides again (first at round %d)" round
              node decide_round.(node)
          else begin
            decide_round.(node) <- round;
            in_mis.(node) <- b
          end;
          if crash_round.(node) <= round then
            err ck "round %d: decide at node %d, which crashed at round %d"
              round node crash_round.(node)
        end
      | Trace.Crash { round; node } ->
        check_node "crash" round node;
        incr crashes;
        incr r_crashes;
        if node_ok node then begin
          if crash_round.(node) < max_int then
            err ck "round %d: node %d crashes again (first at round %d)" round
              node crash_round.(node)
          else if decide_round.(node) >= 0 then
            err ck "round %d: crash at node %d after it decided (round %d)"
              round node decide_round.(node)
          else crash_round.(node) <- round
        end
      | Trace.Annotate { round; node; _ } ->
        check_node "annotate" round node;
        incr annotations;
        if node_ok node && crash_round.(node) <= round then
          err ck "round %d: annotate at node %d, which crashed at round %d"
            round node crash_round.(node)
      | Trace.Round_end { round; messages; dropped; delayed; decided; crashed }
        ->
        let delivered = !r_sends - !r_drops in
        if messages <> delivered then
          err ck
            "round %d: round_end reports %d delivered messages but events \
             show %d sends - %d drops = %d"
            round messages !r_sends !r_drops delivered;
        if dropped <> !r_drops then
          err ck "round %d: round_end reports %d dropped but events show %d"
            round dropped !r_drops;
        if delayed <> !r_delays then
          err ck "round %d: round_end reports %d delayed but events show %d"
            round delayed !r_delays;
        if decided <> !r_decides then
          err ck "round %d: round_end reports %d decided but events show %d"
            round decided !r_decides;
        if crashed <> !r_crashes then
          err ck "round %d: round_end reports %d crashed but events show %d"
            round crashed !r_crashes;
        round_stats :=
          { r_messages = messages; r_dropped = dropped; r_delayed = delayed;
            r_decided = decided; r_crashed = crashed }
          :: !round_stats;
        (* Undelayed deliveries land next round. *)
        Hashtbl.iter
          (fun dst c ->
            if c < 0 then
              err ck
                "round %d: node %d has more drop/delay events than sends" round
                dst
            else if c > 0 then schedule ~delivery:(round + 1) ~dst c)
          r_to;
        Hashtbl.reset r_to;
        r_sends := 0;
        r_drops := 0;
        r_delays := 0;
        r_decides := 0;
        r_crashes := 0;
        if index then idx_dirtys := !idx_dirty :: !idx_dirtys
  in
  let rec go = function
    | [] -> ()
    | ev :: rest ->
      handle rest ev;
      go rest
  in
  go events;
  (* Unreceived deliveries are legal only if the destination had already
     decided, had crashed, or the run ended before the delivery round.
     (Sorted for deterministic error output.) *)
  let wasted_to_decided = ref 0 in
  let wasted_to_crashed = ref 0 in
  let in_flight_end = ref 0 in
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) pending []
  |> List.sort compare
  |> List.iter (fun ((delivery, dst), c) ->
         if c > 0 && node_ok dst then begin
           let decided_first =
             decide_round.(dst) >= 0 && decide_round.(dst) < delivery
           in
           let crashed_first = crash_round.(dst) <= delivery in
           (* Classify the waste: a message still pending at run end was
              sent either to a node that had already decided (in flight
              at decide), to one that had crashed, or — under delay — to
              a delivery round past the end of the run. *)
           if decided_first then wasted_to_decided := !wasted_to_decided + c
           else if crashed_first then wasted_to_crashed := !wasted_to_crashed + c
           else if delivery > rounds then in_flight_end := !in_flight_end + c
           else
             err ck
               "round %d: %d messages delivered to node %d were never received"
               delivery c dst
         end);
  (* Totals vs the run_end record. *)
  let run_in_flight = ref 0 in
  (match !run_end with
  | Some
      (Trace.Run_end
        { rounds = r; messages; dropped; delayed; decided; in_flight }) ->
    let delivered = !sends - !drops in
    if r <> rounds then
      err ck "run_end reports %d rounds but the last round is %d" r rounds;
    if messages <> delivered then
      err ck
        "run_end reports %d delivered messages but events show %d sends - %d \
         drops = %d"
        messages !sends !drops delivered;
    if dropped <> !drops then
      err ck "run_end reports %d dropped but events show %d" dropped !drops;
    if delayed <> !delays then
      err ck "run_end reports %d delayed but events show %d" delayed !delays;
    if decided <> !decides then
      err ck "run_end reports %d decided but events show %d" decided !decides;
    (* Exact message conservation: every enqueued message is either
       consumed by a recv or still in flight at run end, so
       sends = recvs + drops + in_flight. *)
    run_in_flight := in_flight;
    if in_flight <> delivered - !received then
      err ck
        "run_end reports %d in flight but events show %d delivered - %d \
         received = %d"
        in_flight delivered !received (delivered - !received)
  | _ -> ());
  if !decides + !crashes > !active then
    err ck "%d decides + %d crashes exceed the %d active nodes" !decides
      !crashes !active;
  let errors =
    let listed = List.rev ck.errors in
    if ck.error_count > ck.limit then
      listed
      @ [ spf "(%d further errors suppressed)" (ck.error_count - ck.limit) ]
    else listed
  in
  if errors <> [] then Error errors
  else
    Ok
      ( { program = !program; n; active = !active; rounds; sends = !sends;
          delivered = !sends - !drops; dropped = !drops; delayed = !delays;
          decided = !decides; crashed = !crashes; received = !received;
          in_flight = !run_in_flight;
          annotations = !annotations;
          complete = !decides + !crashes = !active;
          wasted_to_decided = !wasted_to_decided;
          wasted_to_crashed = !wasted_to_crashed;
          in_flight_end = !in_flight_end;
          round_stats = Array.of_list (List.rev !round_stats);
          decide_round; in_mis; crash_round },
        { di_slices = Array.of_list (List.rev !idx_slices);
          di_dirty = Array.of_list (List.rev !idx_dirtys);
          di_drops = !idx_drops } )

let replay ?max_errors events =
  Result.map fst (replay_core ~index:false ?max_errors events)

let replay_indexed ?max_errors events =
  replay_core ~index:true ?max_errors events

let replay_file ?max_errors path =
  match of_jsonl path with
  | Error e -> Error [ e ]
  | Ok events -> replay ?max_errors events
