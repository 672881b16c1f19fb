(** Experiment configuration from environment variables.

    - [FAIRMIS_TRIALS]  — Monte Carlo runs per (topology, algorithm);
      default 2,000 so the whole bench finishes in minutes.
    - [FAIRMIS_FULL=1]  — paper mode: 10,000 trials and the full 17,834-node
      NYC tree (overrides [FAIRMIS_TRIALS] unless that is also set).
    - [FAIRMIS_NYC]     — [full] | [small] | [skip]; default [full] in paper
      mode, [small] (2,048-node city tree) otherwise.
    - [FAIRMIS_DOMAINS] — parallel domains for the trial engine (must be
      [>= 1]; garbage falls back to the engine default,
      {!Mis_stats.Parallel.default_domains}).
    - [FAIRMIS_SEED]    — base seed; default 1.
    - [FAIRMIS_OUT]     — existing directory; experiments that can export
      CSV artifacts (currently [fig4]) write them there. *)

type nyc_mode = Nyc_full | Nyc_small | Nyc_skip

type t = {
  trials : int;
  seed : int;
  domains : int option;
  nyc : nyc_mode;
  full : bool;
}

val load : ?getenv:(string -> string option) -> unit -> t
(** [getenv] defaults to [Sys.getenv_opt]; injectable for tests. *)

val montecarlo : ?trials:int -> t -> Mis_stats.Montecarlo.config
(** Trials, seed and domains for the trial harness; [trials] overrides
    the config's trial count (experiments that probe fewer runs, e.g.
    repeats or structural probes, pass their own). *)

val describe : t -> string
