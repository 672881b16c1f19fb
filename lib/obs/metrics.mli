(** Named-metric registry: counters, gauges, fixed-bucket histograms,
    wall-clock timers and quantile sketches, with a deterministic
    snapshot / JSON export.

    A registry is a flat namespace of metrics. Registration is idempotent:
    asking twice for the same name and kind returns the same instrument;
    asking for an existing name with a different kind raises
    [Invalid_argument]. Instruments are plain mutable cells — updating one
    is a few machine instructions, cheap enough for per-round use in the
    simulator and the experiment runners.

    Timers accumulate [Unix.gettimeofday] deltas, for coarse phase
    accounting in experiments and the bench trace file. *)

type t
(** A registry. *)

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit

(** {1 Histograms} *)

type histogram

val histogram : t -> ?buckets:float array -> string -> histogram
(** Fixed upper-bound buckets (a value [v] lands in the first bucket with
    [v <= bound]; larger values land in the implicit overflow bucket).
    [buckets] (default: powers of two, [1 .. 65536]) must be strictly
    increasing and is ignored when the histogram already exists.
    @raise Invalid_argument on an empty or non-increasing bucket list. *)

val observe : histogram -> float -> unit

val observe_int : histogram -> int -> unit

(** {1 Timers} *)

type timer

val timer : t -> string -> timer

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk, adding its wall-clock duration (and one call) to the
    timer; exceptions propagate after the time is recorded. *)

val timer_add : timer -> seconds:float -> calls:int -> unit
(** Fold an externally measured duration into the timer (used by
    {!Prof.to_metrics}). Negative inputs raise [Invalid_argument]. *)

(** {1 Sketches} *)

val sketch : t -> ?accuracy:float -> string -> Sketch.t
(** A registered {!Sketch} (streaming quantiles with a relative-error
    bound; see {!Sketch.create} for [accuracy], ignored when the sketch
    already exists). Update with {!Sketch.add}; exported as an
    OpenMetrics summary and a ["sketches"] JSON section. *)

(** {1 Snapshots} *)

type snapshot

val snapshot : t -> snapshot
(** A deep copy of every instrument's current value, sorted by name. *)

val to_json : snapshot -> Json.t
(** Deterministic object
    [{"counters":{..},"gauges":{..},"histograms":{..},"timers":{..},
    "sketches":{..}}] with names sorted; histograms carry [buckets],
    [counts] (one longer than [buckets]: the last entry is the overflow
    bucket), [count], [sum], [min] and [max]; sketches carry [accuracy],
    [count], [sum], [min], [max] and a fixed [quantiles] object
    (p50/p90/p95/p99). *)

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> float option
val find_sketch : snapshot -> string -> Sketch.t option
(** Test helpers: look a value up in a snapshot. *)

(** {1 Typed snapshot view} *)

type view =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      v_buckets : float array;
      v_counts : int array;  (** One longer than [v_buckets] (overflow). *)
      v_sum : float;
      v_count : int;
    }
  | Timer_v of { v_seconds : float; v_calls : int }
  | Sketch_v of Sketch.t

val items : snapshot -> (string * view) list
(** The snapshot's instruments with their values, sorted by name — the
    input of {!Openmetrics.render}. *)
