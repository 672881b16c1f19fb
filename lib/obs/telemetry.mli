(** Live-operations layer over a {!Metrics} registry: online smoothing
    primitives, a bounded flight recorder, a health summary, and a
    minimal HTTP exposer serving [/metrics] (OpenMetrics text) and
    [/healthz] (JSON) from a background thread — the observability a
    long-running [fairmis_cli serve] needs {e while} it runs, as opposed
    to the JSONL files analyzed after the fact.

    {b Threading model.} The exposer runs a single accept loop on a
    background {e systhread} (not a domain: an idle extra domain parked
    in [select] drags every minor collection of the serving domain into
    a cross-domain stop-the-world rendezvous — about 2x on the
    allocating engine hot path under OCaml 5.1 — whereas an idle thread
    releases the runtime lock and costs nothing) and handles one
    connection at a time. The registry's plain mutable instruments are
    not safe to iterate while new names register concurrently, so every
    scrape takes the telemetry lock ({!with_lock}) around its snapshot,
    and the serve loop takes the same lock around each batch commit. A
    scrape therefore waits at most one batch repair; batch commits wait
    at most one snapshot copy. Code paths that never share the registry
    with an exposer (the experiments' registries, the bench harness) pay
    nothing. *)

(** {1 Online smoothing} *)

(** Exponentially weighted moving average. *)
module Ewma : sig
  type t

  val create : ?alpha:float -> unit -> t
  (** [alpha] (default [0.2], in (0, 1]) weights the newest observation;
      the first observation seeds the average directly.
      @raise Invalid_argument on [alpha] outside (0, 1]. *)

  val observe : t -> float -> unit
  val value : t -> float option  (** [None] before any observation. *)
end

(** Windowed event rate: a ring of sub-window counters covering the last
    [window] seconds, so the reported rate forgets old traffic instead of
    averaging over the whole process lifetime. *)
module Rate : sig
  type t

  val create : ?window:float -> ?slots:int -> unit -> t
  (** [window] (default [60.] seconds) split into [slots] (default [12])
      rotating sub-windows. @raise Invalid_argument on non-positive
      parameters. *)

  val tick : ?n:int -> t -> now:float -> unit
  (** Count [n] (default 1) events at time [now] (seconds, any monotone
      clock — callers must stick to one). *)

  val rate : t -> now:float -> float
  (** Events per second over the window ending at [now]; [0.] when the
      window is empty. *)
end

(** {1 Flight recorder} *)

(** A bounded ring of recent trace events and batch reports, dumped to
    JSONL only when something goes wrong (invariant failure, crash), so
    the steady state pays one ring slot per entry and no I/O. Trace
    events serialize through {!Trace.to_json} — exactly the wire format
    {!Replay.parse_line} reads back — and batch reports as
    [{"type":"batch_report",...}] lines. *)
module Recorder : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Ring capacity (default 4096 entries).
      @raise Invalid_argument when [< 1]. *)

  val sink : t -> Trace.sink
  (** Record every emitted trace event (tee it next to a real sink). *)

  val note : t -> Json.t -> unit
  (** Record one report object (must already carry its ["type"]). *)

  val length : t -> int  (** Entries currently held. *)

  val dump : t -> out_channel -> unit
  (** Write the ring oldest-first as JSONL. *)

  val dump_file : t -> string -> unit
end

(** {1 Telemetry} *)

type t

val create : ?slo:float -> ?recorder:Recorder.t -> Metrics.t -> t
(** [slo] (default [0.1] seconds, must be positive) is the repair-latency
    budget behind the ["dyn.slo.breaches"] burn counter; [recorder]
    defaults to a fresh 4096-entry ring. *)

val recorder : t -> Recorder.t
val slo : t -> float

val with_lock : t -> (unit -> 'a) -> 'a
(** Run [f] holding the telemetry lock — the serve loop wraps each batch
    commit so scrapes never observe a half-updated registry. *)

val healthz : t -> Json.t
(** One JSON object summarizing serve health from the registry:
    [status] (["ok"], or ["degraded"] once any invariant violation was
    counted: each one was healed by a full recompute),
    [uptime_seconds], batches and events served, full-recompute and
    invariant-violation counts, the SLO
    burn counter with its threshold, and streaming repair-latency
    p50/p95/p99 from the ["dyn.repair.latency_seconds"] sketch (absent
    fields render as [0] / [null]). The [/healthz] body; exposed so tests
    can read it without a socket. *)

(** {1 HTTP exposer} *)

(** Minimal single-threaded HTTP/1.1 server on a background systhread:
    [GET /metrics] → OpenMetrics text, [GET /healthz] → JSON; anything
    else is 404 (405 for non-GET). One connection at a time, 2-second
    socket timeouts, [Connection: close] on every response — a scrape
    target, not a web server. *)
module Http : sig
  type server

  val start : ?addr:string -> port:int -> t -> server
  (** Bind [addr] (default ["127.0.0.1"]) on [port] ([0] picks an
      ephemeral port — see {!port}) and serve until {!stop}. The accept
      loop polls its listen socket every 200 ms so shutdown needs no
      cross-thread signal. @raise Unix.Unix_error when the bind fails
      (port in use, bad address). *)

  val port : server -> int
  (** The bound port (useful with [port:0]). *)

  val stop : server -> unit
  (** Stop accepting, join the thread, close the socket. Idempotent. *)
end
