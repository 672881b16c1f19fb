(** Uniform "run once with a seed" adapters over the algorithms, plus the
    shared measure-and-validate step used by every experiment. *)

type t = {
  name : string;
  run : Mis_graph.View.t -> seed:int -> bool array;
      (** Apply [run view] once per view and call the result per seed.
          The partial application does any per-view setup (for {!luby}
          and {!fair_tree}, compiling one {!Mis_sim.Kernel}); the
          returned per-seed closure may be called from any domain,
          concurrently. [run view ~seed] in one go is correct but repeats
          the setup on every call. *)
}

val luby : t
(** Luby's algorithm on a compiled {!Mis_sim.Kernel}: the same MIS as
    {!Fairmis.Luby.run} under the same seed. *)

val fair_tree : t
(** FairTree on a compiled {!Mis_sim.Kernel}: the same MIS as
    {!Fairmis.Fair_tree.run} under the same seed. *)

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

(** {1 Traced runners}

    Adapters over the simulator-backed implementations that accept a
    {!Mis_obs.Trace.sink} and return the full {!Mis_sim.Runtime.outcome}
    (the plain {!t} runners only return the membership mask). Used by the
    [fairmis_cli trace] subcommand. *)

type traced = {
  t_name : string;  (** CLI key, matching the [run] subcommand's names. *)
  t_display : string;
  t_run :
    Mis_graph.View.t ->
    seed:int ->
    tracer:Mis_obs.Trace.sink ->
    Mis_sim.Runtime.outcome;
}

val traced : traced list
(** [luby], [luby-degree], [fairtree], [fairbipart] and [colormis] (over
    the randomized greedy coloring). *)

val find_traced : string -> traced option

val measure :
  Config.t -> Mis_graph.View.t -> t -> Mis_stats.Empirical.t
(** Monte Carlo with per-run MIS validation; applies [runner.run view]
    once and shares the result across the trial pool. *)
