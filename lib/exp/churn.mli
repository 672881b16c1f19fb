(** Dynamic MIS under churn: serve a heavy-tailed event stream through
    the incremental maintainer ({!Mis_dyn.Maintain}) and measure the
    robustness story — repair locality (region size vs the live graph),
    repair latency percentiles, escalations/full recomputes, and
    windowed fairness over the nodes that stay up (ours; the paper's
    WAP scenario, Sec. IX, made long-running). *)

val run : Config.t -> unit
