(* Live-telemetry layer: quantile sketches (error bound vs the exact
   offline nearest-rank, merge compatibility), OpenMetrics rendering
   (golden-pinned), the flight recorder, EWMA / windowed rates, the HTTP
   exposer, and the serve-loop wiring. *)

module Json = Mis_obs.Json
module Metrics = Mis_obs.Metrics
module Sketch = Mis_obs.Sketch
module Openmetrics = Mis_obs.Openmetrics
module Telemetry = Mis_obs.Telemetry
module Trace = Mis_obs.Trace
module Replay = Mis_obs.Replay
module Maintain = Mis_dyn.Maintain
module Serve = Mis_dyn.Serve
module Event = Mis_dyn.Event

let spf = Printf.sprintf

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- sketch ------------------------------------------------------------- *)

let test_sketch_basics () =
  let s = Sketch.create () in
  Alcotest.(check (option (float 0.))) "empty quantile" None
    (Sketch.quantile s 0.5);
  Alcotest.(check int) "empty count" 0 (Sketch.count s);
  List.iter (Sketch.add s) [ 3.; 1.; 2. ];
  Alcotest.(check int) "count" 3 (Sketch.count s);
  Alcotest.(check (float 1e-9)) "sum" 6. (Sketch.sum s);
  Alcotest.(check (option (float 1e-9))) "min exact" (Some 1.)
    (Sketch.min_value s);
  Alcotest.(check (option (float 1e-9))) "max exact" (Some 3.)
    (Sketch.max_value s);
  (* Clamping to observed extremes makes the endpoints exact. *)
  Alcotest.(check (option (float 1e-9))) "q=0 exact" (Some 1.)
    (Sketch.quantile s 0.);
  Alcotest.(check (option (float 1e-9))) "q=1 exact" (Some 3.)
    (Sketch.quantile s 1.);
  (match Sketch.quantile s 0.5 with
  | Some v ->
    if abs_float (v -. 2.) > 0.011 *. 2. then
      Alcotest.failf "median estimate %g too far from 2" v
  | None -> Alcotest.fail "median missing");
  Alcotest.check_raises "negative add"
    (Invalid_argument "Sketch.add: value must be finite and >= 0")
    (fun () -> Sketch.add s (-1.));
  Alcotest.check_raises "bad accuracy"
    (Invalid_argument "Sketch.create: accuracy must be in (0, 1)")
    (fun () -> ignore (Sketch.create ~accuracy:1. ()));
  Alcotest.check_raises "bad quantile"
    (Invalid_argument "Sketch.quantile: q must be in [0, 1]")
    (fun () -> ignore (Sketch.quantile s 1.5))

let test_sketch_zero_and_clamp () =
  let s = Sketch.create ~min_value:1e-3 ~max_value:1e3 () in
  Sketch.add s 0.;
  Sketch.add s 1e-6;  (* below min_value: zero bucket *)
  Alcotest.(check (option (float 0.))) "sub-range reports 0" (Some 0.)
    (Sketch.quantile s 0.9);
  Sketch.add s 1e9;  (* above max_value: clamps, count stays exact *)
  Alcotest.(check int) "count exact under clamp" 3 (Sketch.count s);
  match Sketch.quantile s 1.0 with
  | Some v ->
    Alcotest.(check (float 1e-9)) "top clamps to observed max" 1e9 v
  | None -> Alcotest.fail "missing"

let test_ceil_rank_exact () =
  (* The canonical float-path misrank: the double 0.1 is strictly greater
     than 1/10, so ceil (0.1 * 10) is mathematically 2 — yet
     0.1 *. 10. rounds to exactly 1.0 and the old float ceil said 1. *)
  Alcotest.(check int) "0.1 of 10" 2 (Sketch.ceil_rank ~total:10 0.1);
  Alcotest.(check int) "0.1 of 100" 11 (Sketch.ceil_rank ~total:100 0.1);
  (* Likewise 0.9 > 9/10. *)
  Alcotest.(check int) "0.9 of 10" 10 (Sketch.ceil_rank ~total:10 0.9);
  (* 0.95 < 19/20, so this one agrees with the float path. *)
  Alcotest.(check int) "0.95 of 100" 95 (Sketch.ceil_rank ~total:100 0.95);
  (* Endpoints and degenerate totals. *)
  Alcotest.(check int) "q=0" 0 (Sketch.ceil_rank ~total:10 0.);
  Alcotest.(check int) "q=1" 10 (Sketch.ceil_rank ~total:10 1.);
  Alcotest.(check int) "total=0" 0 (Sketch.ceil_rank ~total:0 0.5);
  (* q just above 0: any positive q with a positive total ranks 1. *)
  Alcotest.(check int) "tiny q" 1
    (Sketch.ceil_rank ~total:max_int Float.min_float);
  Alcotest.(check int) "subnormal q" 1
    (Sketch.ceil_rank ~total:max_int (Float.ldexp 1. (-1060)));
  (* q just below 1 must reach the top rank. *)
  Alcotest.(check int) "pred 1 of 100" 100
    (Sketch.ceil_rank ~total:100 (Float.pred 1.));
  (* Totals near and beyond 2^53, where float_of_int total itself rounds:
     0.5 * (2^53 + 1) = 2^52 + 0.5, ceiling 2^52 + 1 — but
     float_of_int (2^53 + 1) is 2^53, so the float path said 2^52. *)
  let p53 = 1 lsl 53 in
  Alcotest.(check int) "0.5 of 2^53+1" ((p53 / 2) + 1)
    (Sketch.ceil_rank ~total:(p53 + 1) 0.5);
  Alcotest.(check int) "pred 1 of 2^53" (p53 - 1)
    (Sketch.ceil_rank ~total:p53 (Float.pred 1.));
  Alcotest.(check int) "q=1 of max_int" max_int
    (Sketch.ceil_rank ~total:max_int 1.);
  Alcotest.(check int) "0.5 of max_int" ((max_int / 2) + 1)
    (Sketch.ceil_rank ~total:max_int 0.5);
  Alcotest.check_raises "bad q"
    (Invalid_argument "Sketch.ceil_rank: q must be in [0, 1]")
    (fun () -> ignore (Sketch.ceil_rank ~total:10 1.5));
  Alcotest.check_raises "bad total"
    (Invalid_argument "Sketch.ceil_rank: total must be >= 0")
    (fun () -> ignore (Sketch.ceil_rank ~total:(-1) 0.5))

(* Away from integer boundaries the float path is already right, so it
   doubles as an oracle: when q * total is not within 1e-6 of an integer
   (for totals small enough that the double product is far more accurate
   than that), exact and float ranks must agree. *)
let prop_ceil_rank_matches_float_off_boundary =
  Helpers.qtest ~count:500 "ceil_rank = float ceil away from integers"
    QCheck.(pair (float_bound_exclusive 1.) (int_range 1 1_000_000))
    (fun (q, total) ->
      let q = Float.abs q in
      let f = q *. float_of_int total in
      Float.abs (f -. Float.round f) < 1e-6
      || Sketch.ceil_rank ~total q = int_of_float (Float.ceil f))

(* Positive values spanning several orders of magnitude, all inside the
   default trackable range. *)
let arb_samples =
  let open QCheck in
  let gen =
    Gen.map
      (fun (m, e) -> float_of_int (m + 1) *. (10. ** float_of_int e))
      Gen.(pair (int_range 0 999) (int_range (-3) 3))
  in
  make
    ~print:(fun xs ->
      String.concat " " (List.map string_of_float xs))
    (Gen.list_size (Gen.int_range 1 300) gen)

(* The sketch estimate must sit within its relative accuracy of the exact
   nearest-rank value. The bucket-edge nudge in the index computation can
   land a boundary value exactly at the bound, so allow a hair of slack. *)
let check_quantile_bound ~what sketch exact =
  let acc = Sketch.accuracy sketch in
  List.for_all
    (fun q ->
      match (Sketch.quantile sketch q, Sketch.nearest_rank exact q) with
      | Some est, Some x ->
        let tol = (acc *. x) +. (1e-9 *. x) in
        if abs_float (est -. x) <= tol then true
        else
          QCheck.Test.fail_reportf
            "%s: q=%g estimate %.9g vs exact %.9g (tol %.3g)" what q est x
            tol
      | None, None -> true
      | _ -> QCheck.Test.fail_reportf "%s: emptiness disagrees" what)
    [ 0.; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1. ]

let prop_sketch_error_bound =
  Helpers.qtest ~count:200 "sketch quantiles within accuracy of nearest-rank"
    arb_samples
    (fun xs ->
      let s = Sketch.create () in
      List.iter (Sketch.add s) xs;
      check_quantile_bound ~what:"single" s (Array.of_list xs))

(* --- OpenMetrics -------------------------------------------------------- *)

let test_metric_name () =
  let name raw =
    let reg = Metrics.create () in
    Metrics.set (Metrics.gauge reg raw) 1.;
    match String.split_on_char '\n' (Openmetrics.render (Metrics.snapshot reg)) with
    | _type :: sample :: _ -> List.hd (String.split_on_char ' ' sample)
    | _ -> Alcotest.failf "no sample for %S" raw
  in
  Alcotest.(check string) "dots" "dyn_repair_seconds" (name "dyn.repair.seconds");
  Alcotest.(check string) "keeps colon" "a:b_c" (name "a:b-c");
  Alcotest.(check string) "leading digit" "_9lives" (name "9lives")

let golden_registry () =
  let reg = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter reg "dyn.batches");
  Metrics.set (Metrics.gauge reg "dyn.live_nodes") 42.;
  let h = Metrics.histogram reg ~buckets:[| 1.; 2.; 4. |] "region" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.; 100. ];
  Metrics.timer_add (Metrics.timer reg "phase") ~seconds:1.25 ~calls:2;
  let s = Metrics.sketch reg "lat" in
  List.iter (Sketch.add s) [ 1.; 1.; 1.; 1. ];
  reg

let golden_exposition =
  String.concat "\n"
    [ "# TYPE dyn_batches counter";
      "dyn_batches_total 3";
      "# TYPE dyn_live_nodes gauge";
      "dyn_live_nodes 42.0";
      "# TYPE lat summary";
      "lat{quantile=\"0.5\"} 1.0";
      "lat{quantile=\"0.9\"} 1.0";
      "lat{quantile=\"0.95\"} 1.0";
      "lat{quantile=\"0.99\"} 1.0";
      "lat_sum 4.0";
      "lat_count 4";
      "# TYPE phase_seconds counter";
      "phase_seconds_total 1.25";
      "# TYPE phase_calls counter";
      "phase_calls_total 2";
      "# TYPE region histogram";
      "region_bucket{le=\"1.0\"} 1";
      "region_bucket{le=\"2.0\"} 2";
      "region_bucket{le=\"4.0\"} 3";
      "region_bucket{le=\"+Inf\"} 4";
      "region_sum 105.0";
      "region_count 4";
      "# EOF";
      "" ]

let test_openmetrics_golden () =
  let out = Openmetrics.render (Metrics.snapshot (golden_registry ())) in
  Alcotest.(check string) "pinned exposition" golden_exposition out;
  (* An empty sketch renders no quantile samples (a summary may not carry
     NaN) but keeps sum and count. *)
  let reg = Metrics.create () in
  ignore (Metrics.sketch reg "empty");
  Alcotest.(check string) "empty summary"
    "# TYPE empty summary\nempty_sum 0.0\nempty_count 0\n# EOF\n"
    (Openmetrics.render (Metrics.snapshot reg))

(* --- EWMA and windowed rate --------------------------------------------- *)

let test_ewma () =
  let e = Telemetry.Ewma.create ~alpha:0.5 () in
  Alcotest.(check (option (float 0.))) "unseeded" None
    (Telemetry.Ewma.value e);
  Telemetry.Ewma.observe e 10.;
  Alcotest.(check (option (float 1e-9))) "first seeds" (Some 10.)
    (Telemetry.Ewma.value e);
  Telemetry.Ewma.observe e 20.;
  Alcotest.(check (option (float 1e-9))) "smooths" (Some 15.)
    (Telemetry.Ewma.value e);
  Alcotest.check_raises "bad alpha"
    (Invalid_argument "Ewma.create: alpha must be in (0, 1]")
    (fun () -> ignore (Telemetry.Ewma.create ~alpha:0. ()))

let test_rate () =
  let r = Telemetry.Rate.create ~window:60. ~slots:12 () in
  Alcotest.(check (float 1e-9)) "empty" 0. (Telemetry.Rate.rate r ~now:0.);
  for i = 0 to 59 do
    Telemetry.Rate.tick r ~now:(float_of_int i)
  done;
  Alcotest.(check (float 1e-3)) "one per second" 1.
    (Telemetry.Rate.rate r ~now:59.);
  (* Two windows later the traffic has aged out. *)
  Alcotest.(check (float 1e-9)) "forgets" 0.
    (Telemetry.Rate.rate r ~now:200.)

(* --- flight recorder ---------------------------------------------------- *)

let dump_to_string rec_ =
  let path = Filename.temp_file "fairmis_flight" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.Recorder.dump_file rec_ path;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let test_recorder_bound_and_replay () =
  let r = Telemetry.Recorder.create ~capacity:4 () in
  let sink = Telemetry.Recorder.sink r in
  for round = 1 to 6 do
    sink.Trace.emit (Trace.Round_begin { round })
  done;
  Telemetry.Recorder.note r
    (Json.obj [ ("type", Json.str "batch_report"); ("batch", Json.int 7) ]);
  Alcotest.(check int) "bounded" 4 (Telemetry.Recorder.length r);
  let lines =
    String.split_on_char '\n' (String.trim (dump_to_string r))
  in
  Alcotest.(check int) "dump holds the ring" 4 (List.length lines);
  (* Oldest-first: rounds 4, 5, 6, then the note. *)
  List.iteri
    (fun i line ->
      if i < 3 then (
        match Replay.parse_line line with
        | Ok (Trace.Round_begin { round }) ->
          Alcotest.(check int) (spf "event %d" i) (4 + i) round
        | Ok _ -> Alcotest.failf "unexpected event: %s" line
        | Error e -> Alcotest.failf "unparseable event line: %s" e)
      else
        match Json.parse line with
        | Ok v ->
          Alcotest.(check (option string)) "report line" (Some "batch_report")
            (Option.bind (Json.find v "type") Json.get_string)
        | Error e -> Alcotest.failf "unparseable report line: %s" e)
    lines

(* --- telemetry + serve wiring ------------------------------------------- *)

let churn_stream ~batches =
  (* Deterministic little event stream with explicit batch markers. *)
  let buf = Buffer.create 1024 in
  for b = 0 to batches - 1 do
    for i = 0 to 3 do
      let u = ((4 * b) + i) mod 32 in
      Buffer.add_string buf
        (Event.to_json
           (Event.Node_join { node = u; edges = (if u > 0 then [ u - 1 ] else []) }));
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf "{\"type\":\"batch\"}\n"
  done;
  Buffer.contents buf

let serve_with_telemetry ~slo =
  let metrics = Metrics.create () in
  let telemetry = Telemetry.create ~slo metrics in
  (* A deterministic clock: each repair measures exactly 25 ms. *)
  let now = ref 0. in
  let clock () =
    now := !now +. 0.025;
    !now
  in
  let config =
    { Maintain.default_config with
      Maintain.metrics = Some metrics; check_every = 1; clock }
  in
  let maintainer = Maintain.create ~config ~capacity:32 () in
  let ic =
    let path = Filename.temp_file "fairmis_serve" ".jsonl" in
    let oc = open_out path in
    output_string oc (churn_stream ~batches:5);
    close_out oc;
    at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
    open_in path
  in
  let stats =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Serve.run ~telemetry maintainer ic)
  in
  (stats, telemetry, metrics)

let test_serve_sketch_and_slo () =
  let stats, telemetry, metrics = serve_with_telemetry ~slo:0.01 in
  Alcotest.(check int) "batches" 5 stats.Serve.batches;
  Alcotest.(check int) "latency sketch observes every batch" 5
    (Sketch.count stats.Serve.latency);
  (* The stats sketch IS the registry's. *)
  let snap = Metrics.snapshot metrics in
  (match Metrics.find_sketch snap "dyn.repair.latency_seconds" with
  | Some s -> Alcotest.(check int) "registry sketch" 5 (Sketch.count s)
  | None -> Alcotest.fail "registry sketch missing");
  (* Every 25 ms repair breaches a 10 ms SLO. *)
  Alcotest.(check (option int)) "slo breaches" (Some 5)
    (Metrics.find_counter snap "dyn.slo.breaches");
  (match Metrics.find_gauge snap "dyn.live_nodes" with
  | Some v -> Alcotest.(check bool) "live nodes gauge set" true (v > 0.)
  | None -> Alcotest.fail "live nodes gauge missing");
  (* The flight recorder holds one batch_report note per batch. *)
  let lines =
    String.split_on_char '\n'
      (String.trim (dump_to_string (Telemetry.recorder telemetry)))
  in
  let reports =
    List.filter
      (fun l ->
        match Json.parse l with
        | Ok v ->
          Option.bind (Json.find v "type") Json.get_string
          = Some "batch_report"
        | Error _ -> false)
      lines
  in
  Alcotest.(check int) "one report per batch" 5 (List.length reports);
  (* healthz: healthy run, counts wired through. *)
  let hz =
    match Json.parse (Telemetry.healthz telemetry) with
    | Ok v -> v
    | Error e -> Alcotest.failf "healthz unparseable: %s" e
  in
  let field name = Option.bind (Json.find hz name) Json.get_int in
  Alcotest.(check (option string)) "status" (Some "ok")
    (Option.bind (Json.find hz "status") Json.get_string);
  Alcotest.(check (option int)) "healthz batches" (Some 5) (field "batches");
  (* Applied events are per-kind counters; healthz must sum them. *)
  Alcotest.(check (option int)) "healthz events" (Some 20) (field "events");
  Alcotest.(check (option int)) "healthz violations" (Some 0)
    (field "invariant_violations");
  Alcotest.(check (option int)) "healthz full recomputes" (Some 0)
    (field "full_recomputes");
  (match Json.find hz "slo" with
  | Some slo ->
    Alcotest.(check (option int)) "healthz slo breaches" (Some 5)
      (Option.bind (Json.find slo "breaches") Json.get_int)
  | None -> Alcotest.fail "healthz slo section missing");
  (* One counted violation (healed by a full recompute) degrades the
     status; nothing else does. *)
  Metrics.incr (Metrics.counter metrics "dyn.invariant_violations");
  Alcotest.(check (option string)) "degraded after a violation"
    (Some "degraded")
    (Option.bind
       (Result.to_option (Json.parse (Telemetry.healthz telemetry)))
       (fun v -> Option.bind (Json.find v "status") Json.get_string))

(* --- HTTP exposer ------------------------------------------------------- *)

let http_get ~port request =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      let req = Bytes.of_string request in
      ignore (Unix.write sock req 0 (Bytes.length req));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let k = Unix.read sock chunk 0 (Bytes.length chunk) in
        if k > 0 then begin
          Buffer.add_subbytes buf chunk 0 k;
          drain ()
        end
      in
      (try drain () with Unix.Unix_error _ -> ());
      Buffer.contents buf)

let body_of response =
  let sep = "\r\n\r\n" in
  let n = String.length response in
  let rec find i =
    if i + 4 > n then None
    else if String.sub response i 4 = sep then Some (i + 4)
    else find (i + 1)
  in
  match find 0 with
  | Some i -> String.sub response i (n - i)
  | None -> ""

let test_http_exposer () =
  let _stats, telemetry, _metrics = serve_with_telemetry ~slo:0.01 in
  let server = Telemetry.Http.start ~port:0 telemetry in
  Fun.protect
    ~finally:(fun () -> Telemetry.Http.stop server)
    (fun () ->
      let port = Telemetry.Http.port server in
      let metrics_resp =
        http_get ~port "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
      in
      Alcotest.(check bool) "metrics 200" true
        (String.starts_with ~prefix:"HTTP/1.1 200 OK" metrics_resp);
      let body = body_of metrics_resp in
      Alcotest.(check bool) "openmetrics terminator" true
        (String.ends_with ~suffix:"# EOF\n" body);
      Alcotest.(check bool) "serves the latency summary" true
        (contains body "dyn_repair_latency_seconds_count 5");
      Alcotest.(check bool) "no simulator gauges" false
        (contains body "sim_");
      let hz = http_get ~port "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" in
      Alcotest.(check bool) "healthz 200" true
        (String.starts_with ~prefix:"HTTP/1.1 200 OK" hz);
      (match Json.parse (String.trim (body_of hz)) with
      | Ok v ->
        Alcotest.(check (option string)) "healthz body" (Some "ok")
          (Option.bind (Json.find v "status") Json.get_string)
      | Error e -> Alcotest.failf "healthz body unparseable: %s" e);
      let missing = http_get ~port "GET /nope HTTP/1.1\r\n\r\n" in
      Alcotest.(check bool) "404" true
        (String.starts_with ~prefix:"HTTP/1.1 404" missing);
      let post = http_get ~port "POST /metrics HTTP/1.1\r\n\r\n" in
      Alcotest.(check bool) "405" true
        (String.starts_with ~prefix:"HTTP/1.1 405" post));
  (* stop is idempotent *)
  Telemetry.Http.stop server

let suite =
  [ ( "obs.sketch",
      [ Alcotest.test_case "basics and validation" `Quick test_sketch_basics;
        Alcotest.test_case "zero bucket and range clamps" `Quick
          test_sketch_zero_and_clamp;
        Alcotest.test_case "ceil_rank exact boundaries" `Quick
          test_ceil_rank_exact;
        prop_ceil_rank_matches_float_off_boundary;
        prop_sketch_error_bound ] );
    ( "obs.openmetrics",
      [ Alcotest.test_case "name sanitization" `Quick test_metric_name;
        Alcotest.test_case "golden exposition" `Quick test_openmetrics_golden ] );
    ( "obs.telemetry",
      [ Alcotest.test_case "ewma" `Quick test_ewma;
        Alcotest.test_case "windowed rate" `Quick test_rate;
        Alcotest.test_case "flight recorder bound and replay" `Quick
          test_recorder_bound_and_replay;
        Alcotest.test_case "serve wiring: sketch, slo, recorder, healthz"
          `Quick test_serve_sketch_and_slo;
        Alcotest.test_case "http exposer" `Quick test_http_exposer ] ) ]
