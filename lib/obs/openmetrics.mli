(** OpenMetrics / Prometheus text exposition of a {!Metrics.snapshot} —
    what [GET /metrics] on the telemetry exposer returns, and what the
    CI soak scrapes mid-run.

    The rendering is deterministic: families appear in snapshot order
    (sorted by registry name), each preceded by one [# TYPE] line, and the
    document ends with the mandatory [# EOF] terminator, so a fixed
    registry renders byte-identically (golden-pinned in the tests).
    Floats use the same shortest round-trip representation as {!Json}.

    Mapping from registry instruments:
    - counter [x] → [# TYPE x counter] and sample [x_total];
    - gauge [x] → [# TYPE x gauge] and sample [x];
    - histogram [x] → [# TYPE x histogram] with {e cumulative}
      [x_bucket{le="B"}] samples per bound, a final [le="+Inf"] bucket,
      then [x_sum] and [x_count];
    - timer [x] → two counter families, [x_seconds] (sample
      [x_seconds_total]) and [x_calls] (sample [x_calls_total]);
    - sketch [x] → [# TYPE x summary] with [x{quantile="0.5|0.9|0.95|
      0.99"}] samples (omitted while empty — a summary may not carry
      NaN), then [x_sum] and [x_count].

    Registry names are sanitized into the metric-name alphabet
    [[a-zA-Z0-9_:]]: every other character (the registry's dots
    included) becomes [_], and a leading digit gains a [_] prefix. *)

val render : Metrics.snapshot -> string
(** The full exposition document, [# EOF]-terminated. *)
