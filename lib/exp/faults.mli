(** Fairness under faults (ours, extending the Sec. IX evaluation).

    Runs the robustified distributed Luby and FairTree programs
    ({!Fairmis.Robust}) on a random tree under increasing message-drop
    rates and reports, per algorithm and rate: the surviving-subgraph
    MIS-validity rate, the mean executed rounds, the mean dropped
    messages, and the empirical inequality factor of whatever the faulty
    runs output. The zero rate reproduces the perfect-network behavior and
    anchors the comparison. *)

type params = {
  n : int;  (** Tree size (the registered experiment uses >= 1000). *)
  trials : int;  (** Monte Carlo runs per algorithm and rate. *)
  rates : float list;  (** Per-message drop probabilities. *)
  repeats : int;  (** Re-broadcast factor of {!Fairmis.Robust}. *)
  seed : int;
  domains : int option;
  csv : string option;
}

val default_params : params
(** n = 1000, trials = 200, rates = 0 / 0.01 / 0.05 / 0.1, repeats = 3. *)

type cell = {
  algorithm : string;
  drop : float;
  trials : int;
  valid : int;  (** Runs whose output was an MIS of the surviving subgraph. *)
  mean_rounds : float;
  mean_dropped : float;
  factor : float;  (** Empirical inequality factor across all runs. *)
  min_freq : float;
  max_freq : float;
}

val measure : ?metrics:Mis_obs.Metrics.t -> params -> cell list
(** All algorithm × rate cells, each estimated with
    {!Mis_stats.Parallel.map_reduce} across domains. With [metrics], each
    cell additionally records wall-clock ([faults.cell_seconds]), run and
    validity counters, round/drop histograms and a per-cell
    [faults.factor/<alg>/drop=<r>] gauge — all updated on the
    coordinating domain only. Only {!run_params} calls it here; tests
    pin its cells bit-identical across domain counts. *)

val run_params : params -> unit
(** [measure], rendered as a table (and CSV when requested). When a CSV
    path is given, a metrics snapshot is also written next to it as
    [<path>.metrics.json]. *)

val run : Config.t -> unit
(** Registry entry point: {!default_params} scaled by the config's trial
    budget and seed. *)
