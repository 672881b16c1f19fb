(** Online quantile sketch with a relative-accuracy guarantee — the
    streaming half of the live-telemetry layer.

    The sketch is log-bucketed (DDSketch / HDR-histogram style): positive
    values land in geometrically sized buckets with base
    [gamma = (1 + accuracy) / (1 - accuracy)], so any estimate returned by
    {!quantile} is within a {e relative} error of [accuracy] of some value
    at the requested rank, for inputs inside the trackable range. Memory
    is bounded at construction (one [int] per bucket over
    [[min_value, max_value]] — about 1.8k buckets at the defaults) and
    never grows, which is what makes it safe to keep one sketch per
    latency family in a process that serves forever.

    The error bound is pinned by a QCheck test against the exact
    {!nearest_rank} of the same stream.

    Concurrency: updates are plain word-sized stores. A concurrent reader
    (the telemetry exposer's thread, or a sibling domain's scrape) may
    observe a sketch mid-update —
    counts and [sum] can be transiently inconsistent by one observation —
    but never tears a value or crashes; scrapes are monitoring, not
    accounting. The serve loop additionally serializes batch commits and
    scrapes behind {!Telemetry}'s lock. *)

type t

val create : ?accuracy:float -> ?min_value:float -> ?max_value:float ->
  unit -> t
(** [accuracy] (default [0.01]) is the relative-error bound; must be in
    (0, 1). [min_value] (default [1e-9]) and [max_value] (default [1e9])
    bound the trackable range: observations in [(0, min_value)] count
    into a dedicated zero bucket (reported as [0.]), observations above
    [max_value] clamp into the top bucket (the count stays exact, the
    estimate saturates). @raise Invalid_argument on out-of-range
    parameters. *)

val copy : t -> t

val add : t -> float -> unit
(** Record one observation. Negative or non-finite values raise
    [Invalid_argument] — latencies and sizes are nonnegative by
    construction, so a negative input is a caller bug worth failing on. *)

val count : t -> int
val sum : t -> float

val min_value : t -> float option
val max_value : t -> float option
(** Exact smallest / largest observation; [None] when empty. *)

val accuracy : t -> float

val quantile : t -> float -> float option
(** [quantile t q] estimates the nearest-rank [q]-quantile
    ([0. <= q <= 1.]); [None] when the sketch is empty. The estimate [e]
    satisfies [|e - x| <= accuracy * x] for the exact nearest-rank value
    [x], provided [x] lies in the trackable range; estimates are clamped
    to the observed [min]/[max], so [quantile t 0.] and [quantile t 1.]
    are exact. @raise Invalid_argument on [q] outside [0, 1]. *)

(** {1 The exact offline percentile} *)

val ceil_rank : total:int -> float -> int
(** [ceil_rank ~total q] is [ceil (q * total)] computed exactly, for
    [q] in [[0, 1]] and [total >= 0]. The naive
    [Float.ceil (q *. float_of_int total)] misranks whenever the float
    product rounds across an integer — e.g. [0.1 *. 10.] is exactly
    [1.0] although the double [0.1] is strictly greater than 1/10, so
    the true ceiling is 2. Here [q] is decomposed into its exact 53-bit
    mantissa and the product is formed in 128-bit integer arithmetic,
    so the returned rank is the mathematical ceiling of the product of
    [total] with the double [q] actually passed. Both {!quantile} and
    {!nearest_rank} rank through this; it is exposed so tests can pin
    its rounding at totals no sample array reaches.
    @raise Invalid_argument on [q] outside [0, 1] or negative [total]. *)

val nearest_rank : float array -> float -> float option
(** [nearest_rank xs q] is the exact nearest-rank [q]-quantile of [xs]
    (rank [ceil (q * n)], clamped to [1 .. n]): the single offline
    percentile implementation — the sketch's ground truth, and the one
    summaries use on materialized samples. [None] on an empty array.
    @raise Invalid_argument on [q] outside [0, 1]. *)
