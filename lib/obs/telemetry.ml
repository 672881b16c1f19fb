let spf = Printf.sprintf

(* --- online smoothing --------------------------------------------------- *)

module Ewma = struct
  type t = { alpha : float; mutable v : float; mutable seeded : bool }

  let create ?(alpha = 0.2) () =
    if not (alpha > 0. && alpha <= 1.) then
      invalid_arg "Ewma.create: alpha must be in (0, 1]";
    { alpha; v = 0.; seeded = false }

  let observe t x =
    if t.seeded then t.v <- t.v +. (t.alpha *. (x -. t.v))
    else begin
      t.v <- x;
      t.seeded <- true
    end

  let value t = if t.seeded then Some t.v else None
end

module Rate = struct
  type t = {
    slot_span : float;  (* seconds per sub-window *)
    counts : int array;
    stamps : int array;  (* absolute slot number each count belongs to *)
  }

  let create ?(window = 60.) ?(slots = 12) () =
    if not (window > 0.) then invalid_arg "Rate.create: window must be > 0";
    if slots < 1 then invalid_arg "Rate.create: slots must be >= 1";
    { slot_span = window /. float_of_int slots;
      counts = Array.make slots 0;
      stamps = Array.make slots (-1) }

  let slot_of t now = int_of_float (Float.floor (now /. t.slot_span))

  let tick ?(n = 1) t ~now =
    let abs = slot_of t now in
    let i = abs mod Array.length t.counts in
    if t.stamps.(i) <> abs then begin
      t.stamps.(i) <- abs;
      t.counts.(i) <- 0
    end;
    t.counts.(i) <- t.counts.(i) + n

  let rate t ~now =
    let abs = slot_of t now in
    let slots = Array.length t.counts in
    let total = ref 0 in
    for i = 0 to slots - 1 do
      (* Keep only sub-windows inside [now - window, now]. *)
      if t.stamps.(i) > abs - slots then total := !total + t.counts.(i)
    done;
    float_of_int !total /. (t.slot_span *. float_of_int slots)
end

(* --- flight recorder ---------------------------------------------------- *)

module Recorder = struct
  type entry = Ev of Trace.event | Note of Json.t

  type t = {
    ring : entry array;
    mutable len : int;
    mutable next : int;
  }

  let create ?(capacity = 4096) () =
    if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
    { ring = Array.make capacity (Note Json.null); len = 0; next = 0 }

  let push t e =
    t.ring.(t.next) <- e;
    t.next <- (t.next + 1) mod Array.length t.ring;
    if t.len < Array.length t.ring then t.len <- t.len + 1

  let sink t = { Trace.emit = (fun e -> push t (Ev e)); flush = ignore }
  let note t j = push t (Note j)
  let length t = t.len

  let dump t oc =
    let cap = Array.length t.ring in
    let start = if t.len < cap then 0 else t.next in
    for i = 0 to t.len - 1 do
      (match t.ring.((start + i) mod cap) with
      | Ev e -> output_string oc (Trace.to_json e)
      | Note j -> output_string oc j);
      output_char oc '\n'
    done

  let dump_file t path =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> dump t oc)
end

(* --- telemetry ---------------------------------------------------------- *)

type t = {
  reg : Metrics.t;
  rec_ : Recorder.t;
  slo_s : float;
  lock : Mutex.t;
  started : float;
}

let create ?(slo = 0.1) ?recorder reg =
  if not (slo > 0.) then invalid_arg "Telemetry.create: slo must be > 0";
  { reg;
    rec_ = (match recorder with Some r -> r | None -> Recorder.create ());
    slo_s = slo;
    lock = Mutex.create ();
    started = Unix.gettimeofday () }

let recorder t = t.rec_
let slo t = t.slo_s

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let locked_snapshot t = with_lock t (fun () -> Metrics.snapshot t.reg)

let render_metrics t = Openmetrics.render (locked_snapshot t)

let healthz t =
  let snap = locked_snapshot t in
  let c name = Option.value ~default:0 (Metrics.find_counter snap name) in
  let g name = Option.value ~default:0. (Metrics.find_gauge snap name) in
  (* Applied events are counted per kind (dyn.events.node_join, ...);
     sum them, leaving out the skipped / malformed failure counters. *)
  let events_applied =
    List.fold_left
      (fun acc (name, v) ->
        match v with
        | Metrics.Counter_v n
          when String.length name > 11
               && String.sub name 0 11 = "dyn.events."
               && name <> "dyn.events.skipped"
               && name <> "dyn.events.malformed" ->
          acc + n
        | _ -> acc)
      0 (Metrics.items snap)
  in
  let violations = c "dyn.invariant_violations" in
  let status = if violations > 0 then "degraded" else "ok" in
  let quantiles =
    match Metrics.find_sketch snap "dyn.repair.latency_seconds" with
    | None -> Json.null
    | Some sk ->
      let q p =
        match Sketch.quantile sk p with
        | Some v -> Json.float v
        | None -> Json.null
      in
      Json.obj [ ("p50", q 0.5); ("p95", q 0.95); ("p99", q 0.99) ]
  in
  Json.obj
    [ ("status", Json.str status);
      ("uptime_seconds", Json.float (Unix.gettimeofday () -. t.started));
      ("batches", Json.int (c "dyn.batches"));
      ("events", Json.int events_applied);
      ("malformed", Json.int (c "dyn.events.malformed"));
      ("full_recomputes", Json.int (c "dyn.repair.full_recomputes"));
      ("invariant_violations", Json.int violations);
      ( "slo",
        Json.obj
          [ ("threshold_seconds", Json.float t.slo_s);
            ("breaches", Json.int (c "dyn.slo.breaches")) ] );
      ("repair_latency_seconds", quantiles);
      ("live_nodes", Json.int (int_of_float (g "dyn.live_nodes")));
      ("mis_members", Json.int (int_of_float (g "dyn.mis_members"))) ]

(* --- HTTP exposer ------------------------------------------------------- *)

module Http = struct
  type server = {
    sock : Unix.file_descr;
    bound_port : int;
    stopping : bool Atomic.t;
    thread : Thread.t;
    mutable stopped : bool;
  }

  let respond fd ~status ~content_type body =
    let head =
      spf
        "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
         Connection: close\r\n\r\n"
        status content_type (String.length body)
    in
    let msg = Bytes.of_string (head ^ body) in
    let len = Bytes.length msg in
    let off = ref 0 in
    (try
       while !off < len do
         let w = Unix.write fd msg !off (len - !off) in
         if w <= 0 then raise Exit;
         off := !off + w
       done
     with _ -> ())

  (* Read until the blank line ending the request head (we never accept
     bodies), bounded at 8 KiB; return the request line. *)
  let read_request_line fd =
    let buf = Buffer.create 256 in
    let chunk = Bytes.create 512 in
    let rec loop () =
      if Buffer.length buf > 8192 then None
      else begin
        let k = try Unix.read fd chunk 0 (Bytes.length chunk) with _ -> 0 in
        if k = 0 then None
        else begin
          Buffer.add_subbytes buf chunk 0 k;
          let s = Buffer.contents buf in
          (* A pipelined scrape client sends the whole head at once; stop
             at the first complete line. *)
          match String.index_opt s '\n' with
          | Some i ->
            let line = String.sub s 0 i in
            let line =
              if line <> "" && line.[String.length line - 1] = '\r' then
                String.sub line 0 (String.length line - 1)
              else line
            in
            Some line
          | None -> loop ()
        end
      end
    in
    loop ()

  let handle t fd =
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 2.;
    (match read_request_line fd with
    | None -> ()
    | Some line -> (
      match String.split_on_char ' ' line with
      | [ "GET"; path; _version ] -> (
        let path =
          match String.index_opt path '?' with
          | Some i -> String.sub path 0 i
          | None -> path
        in
        match path with
        | "/metrics" ->
          respond fd ~status:"200 OK"
            ~content_type:
              "application/openmetrics-text; version=1.0.0; charset=utf-8"
            (render_metrics t)
        | "/healthz" ->
          respond fd ~status:"200 OK" ~content_type:"application/json"
            (healthz t ^ "\n")
        | _ ->
          respond fd ~status:"404 Not Found" ~content_type:"text/plain"
            "not found\n")
      | _ :: _ :: _ ->
        respond fd ~status:"405 Method Not Allowed" ~content_type:"text/plain"
          "only GET is served\n"
      | _ ->
        respond fd ~status:"400 Bad Request" ~content_type:"text/plain"
          "bad request\n"));
    try Unix.close fd with _ -> ()

  let start ?(addr = "127.0.0.1") ~port t =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt sock Unix.SO_REUSEADDR true;
       Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
       Unix.listen sock 16
     with e ->
       (try Unix.close sock with _ -> ());
       raise e);
    let bound_port =
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    let stopping = Atomic.make false in
    (* A systhread, NOT a domain: an idle extra domain blocked in a
       syscall turns every minor collection of the serving domain into a
       cross-domain stop-the-world rendezvous — measured at ~2x on the
       allocating engine hot path — while an idle thread on the same
       domain costs nothing (it releases the runtime lock inside
       [select]). The poll-accept keeps [stop] wakeup-free: a 200 ms
       select timeout bounds both shutdown latency and idle cost. *)
    let thread =
      Thread.create
        (fun () ->
          let rec loop () =
            if not (Atomic.get stopping) then begin
              match Unix.select [ sock ] [] [] 0.2 with
              | [], _, _ -> loop ()
              | _ :: _, _, _ ->
                (match Unix.accept sock with
                | fd, _ -> ( try handle t fd with _ -> ())
                | exception Unix.Unix_error (_, _, _) -> ());
                loop ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
            end
          in
          loop ())
        ()
    in
    { sock; bound_port; stopping; thread; stopped = false }

  let port s = s.bound_port

  let stop s =
    if not s.stopped then begin
      s.stopped <- true;
      Atomic.set s.stopping true;
      Thread.join s.thread;
      try Unix.close s.sock with _ -> ()
    end
end
