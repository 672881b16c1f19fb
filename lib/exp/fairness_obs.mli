(** The [fairness-obs] experiment: Table I-style inequality factors of
    several algorithms on one random tree. Every run goes through
    {!Mis_stats.Montecarlo} on the algorithm's plain runner and is
    checked by {!Fairmis.Mis.verify}; the joins land in a
    {!Mis_obs.Fairness} accumulator. Reports min/max/mean join
    probability and the inequality factor per algorithm, plus an ASCII
    per-node heatmap and join-frequency histogram. *)

type params = {
  n : int;  (** Random-tree size. *)
  trials : int;  (** Runs per algorithm. *)
  seed : int;
  algorithms : Runners.t list;
  domains : int option;
  csv : string option;
}

val default_params : params
(** n=500, trials=1000, FairTree vs Luby. *)

val run_params : params -> unit
(** Run and print the report (and the CSV when asked).
    @raise Invalid_argument on bad sizes. *)

val run : Config.t -> unit
(** Registry entry point: defaults scaled by the config's trial count
    (at least 1000 runs). *)
