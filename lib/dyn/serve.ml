module Json = Mis_obs.Json
module Line_reader = Mis_obs.Line_reader
module Metrics = Mis_obs.Metrics
module Sketch = Mis_obs.Sketch
module Telemetry = Mis_obs.Telemetry

let spf = Printf.sprintf

type stats = {
  batches : int;
  lines : int;
  events : int;
  applied : int;
  skipped : int;
  malformed : int;
  escalations : int;
  full_recomputes : int;
  max_region : int;
  flips : int;
  latency : Sketch.t;
}

let report_json (r : Maintain.report) =
  Json.obj
    [ ("type", Json.str "batch_report");
      ("batch", Json.int r.Maintain.batch);
      ("events", Json.int r.Maintain.events);
      ("applied", Json.int r.Maintain.applied);
      ("skipped", Json.int r.Maintain.skipped);
      ("dirty", Json.int r.Maintain.dirty);
      ("region_nodes", Json.int (Array.length r.Maintain.region_nodes));
      ("rounds", Json.int r.Maintain.rounds);
      ("escalated", Json.bool r.Maintain.escalated);
      ("full_recompute", Json.bool r.Maintain.full_recompute);
      ("repair_seconds", Json.float r.Maintain.repair_seconds);
      ("flips", Json.int r.Maintain.flips);
      ("live", Json.int r.Maintain.live) ]

let run ?(batch_size = 64) ?max_batches ?file
    ?(log = fun msg -> Printf.eprintf "%s\n%!" msg)
    ?(on_batch = fun (_ : Maintain.report) -> ()) ?telemetry maintainer ic =
  if batch_size < 1 then invalid_arg "Serve.run: batch_size must be >= 1";
  (match max_batches with
  | Some b when b < 1 -> invalid_arg "Serve.run: max_batches must be >= 1"
  | _ -> ());
  let where lineno =
    match file with
    | Some f -> spf "%s:%d" f lineno
    | None -> spf "line %d" lineno
  in
  let metrics = (Maintain.config maintainer).Maintain.metrics in
  (* One latency sketch for the whole run. When the maintainer carries a
     registry the sketch lives there under "dyn.repair.latency_seconds",
     so scrapes and the final snapshot see the same stream the stats
     report; otherwise it is private to the returned stats. *)
  let latency =
    match metrics with
    | Some reg -> Metrics.sketch reg "dyn.repair.latency_seconds"
    | None -> Sketch.create ()
  in
  let slo_breaches =
    match (telemetry, metrics) with
    | Some _, Some reg -> Some (Metrics.counter reg "dyn.slo.breaches")
    | _ -> None
  in
  let locked f =
    match telemetry with
    | Some t -> Telemetry.with_lock t f
    | None -> f ()
  in
  let lines = ref 0 and events = ref 0 and mal = ref 0 in
  let batches = ref 0 and applied = ref 0 and skipped = ref 0 in
  let escalations = ref 0 and fulls = ref 0 and max_region = ref 0 in
  let flips = ref 0 in
  let pending = ref [] and pending_n = ref 0 in
  let stop = ref false and eof = ref false in
  (* A batch marker flushes even an empty batch (a quiet period still
     counts as a served batch); the size trigger and EOF only flush
     pending events. The [max_batches]-th flush stops the read loop. *)
  let flush () =
    (* The whole commit — repair, metric updates, latency observation —
       runs under the telemetry lock so a concurrent scrape never sees a
       half-updated registry. *)
    let report =
      locked (fun () ->
          let report = Maintain.apply_batch maintainer (List.rev !pending) in
          Sketch.add latency report.Maintain.repair_seconds;
          (match (telemetry, slo_breaches) with
          | Some t, Some c
            when report.Maintain.repair_seconds > Telemetry.slo t ->
            Metrics.incr c
          | _ -> ());
          report)
    in
    pending := [];
    pending_n := 0;
    incr batches;
    applied := !applied + report.Maintain.applied;
    skipped := !skipped + report.Maintain.skipped;
    if report.Maintain.escalated then incr escalations;
    if report.Maintain.full_recompute then incr fulls;
    max_region := max !max_region (Array.length report.Maintain.region_nodes);
    flips := !flips + report.Maintain.flips;
    (match telemetry with
    | Some t -> Telemetry.Recorder.note (Telemetry.recorder t)
                  (report_json report)
    | None -> ());
    on_batch report;
    match max_batches with Some b when !batches >= b -> stop := true | _ -> ()
  in
  let reader = Line_reader.create ic in
  let too_long =
    spf "line longer than %d bytes" Line_reader.max_line_bytes
  in
  let bad lineno msg =
    incr mal;
    (match metrics with
    | Some reg -> Metrics.incr (Metrics.counter reg "dyn.events.malformed")
    | None -> ());
    log (spf "%s: skipping malformed event: %s" (where lineno) msg)
  in
  while not (!stop || !eof) do
    match Line_reader.next reader with
    | Line_reader.Eof -> eof := true
    | Line_reader.Too_long ->
      incr lines;
      bad !lines too_long
    | Line_reader.Line line -> (
      incr lines;
      match Event.decode line with
      | Event.Blank -> ()
      | Event.Malformed e -> bad !lines e
      | Event.Batch -> flush ()
      | Event.Event ev ->
        incr events;
        pending := ev :: !pending;
        incr pending_n;
        if !pending_n >= batch_size then flush ())
  done;
  if not !stop && !pending_n > 0 then flush ();
  { batches = !batches;
    lines = !lines;
    events = !events;
    applied = !applied;
    skipped = !skipped;
    malformed = !mal;
    escalations = !escalations;
    full_recomputes = !fulls;
    max_region = !max_region;
    flips = !flips;
    latency }
