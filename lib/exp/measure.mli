(** The [fairmis_cli measure] report: Table I-style inequality factors of
    several algorithms on one topology. Each algorithm's runs go through
    {!Runners.joins} (verified, one compiled runner shared by the trial
    pool), and the summary row, the per-node heatmap and the
    join-frequency histogram all read that one accumulator. *)

type row = {
  runner : Runners.t;
  joins : Mis_obs.Fairness.t;  (** Per-node join counts over the runs. *)
  summary : Mis_stats.Empirical.summary;
      (** [joins] over the view's active nodes. *)
}

val report :
  ?csv:string ->
  Config.t -> spec:string -> Mis_graph.View.t -> Runners.t list -> row list
(** Measure every runner ([cfg.trials] runs from seed [cfg.seed]), then
    print to stdout the table (algorithm, runs, min/max/mean join
    probability, factor) and each algorithm's heatmap and histogram.
    [csv] receives one row per algorithm under the header [algorithm],
    [topology] ([spec]), [trials], [factor], [min_p], [max_p],
    [mean_p]. Nothing is printed until every runner has finished.
    @raise Runners.Unsupported as [runner.run view] does. *)
