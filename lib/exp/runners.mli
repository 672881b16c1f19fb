(** Uniform "run once with a seed" adapters over the algorithms, plus the
    shared measure-and-validate step used by every experiment. *)

type traced_run =
  Mis_graph.View.t -> seed:int -> tracer:Mis_obs.Trace.sink ->
  Mis_sim.Runtime.outcome
(** A simulator-backed run that accepts a {!Mis_obs.Trace.sink} and
    returns the full {!Mis_sim.Runtime.outcome} (a plain [run] only
    returns the membership mask). *)

type t = {
  key : string;  (** CLI key ([fairmis_cli run <key>]). *)
  name : string;  (** Display name in reports. *)
  run : Mis_graph.View.t -> seed:int -> bool array;
      (** Apply [run view] once per view and call the result per seed.
          The partial application does any per-view setup (for {!luby}
          and {!fair_tree}, compiling one {!Mis_sim.Kernel}); the
          returned per-seed closure may be called from any domain,
          concurrently. [run view ~seed] in one go is correct but repeats
          the setup on every call. Each call returns a fresh array. *)
  buffered : (Mis_graph.View.t -> unit -> seed:int -> bool array) option;
      (** The trial path of {!luby} and {!fair_tree} ([None] for the
          others): [buffered view] does [run view]'s setup, and each
          [()] then gives a per-seed closure that writes every call into
          one outcome of its own, so the array it returns is overwritten
          by its next call. One closure per domain; {!joins} uses it
          through {!Mis_stats.Montecarlo.run_buffered}. *)
  traced : traced_run option;
      (** The algorithm's message program, used by [fairmis_cli trace] and
          [critpath]; under the same seed its MIS equals [run]'s. *)
}

val luby : t
(** Luby's algorithm on a compiled {!Mis_sim.Kernel} ({!Fairmis.Luby}). *)

val fair_tree : t
(** FairTree on a compiled {!Mis_sim.Kernel} ({!Fairmis.Fair_tree}). *)

val luby_degree : t
(** Luby's original degree-probability marking variant
    ({!Fairmis.Luby_degree}). *)

val fair_bipart : t
val greedy_permutation : t
val color_mis_planar : t
val color_mis_greedy : t
(** ColorMIS over the randomized (deg+1) greedy coloring — works on any
    graph (the coloring is recomputed each run, as a distributed execution
    would). *)

exception Unsupported of string
(** Raised by [run view] when the algorithm does not handle the view's
    topology, with a message for the user: [fairrooted] on a graph that
    is not a tree. *)

val all : t list
(** Every algorithm, in the CLI's listing order: [luby], [luby-degree],
    [fairtree], [fairbipart], [colormis], [colormis-planar],
    [colormis-adaptive] (ColorMIS choosing among the colors present in
    each block), [greedy] and [fairrooted] (trees only, rooted at node
    0). The first five are traceable. *)

val traceable : t list
(** The entries of {!all} that have a message program, in the same order. *)

val find : string -> (t, string) result
(** The algorithm with this key, or an error naming the known keys. *)

val find_traced : string -> (t * traced_run, string) result
(** The algorithm with this key and its message program, or an error
    naming the traceable keys. *)

val joins : Config.t -> Mis_graph.View.t -> t -> Mis_obs.Fairness.t
(** Monte Carlo with per-run MIS validation: per-node join counts of
    [cfg.trials] runs. Applies [runner.run view] once and shares the
    result across the trial pool. *)

val measure :
  Config.t -> Mis_graph.View.t -> t -> Mis_stats.Empirical.t
(** {!joins} summarized by {!Mis_stats.Montecarlo.empirical}. *)
