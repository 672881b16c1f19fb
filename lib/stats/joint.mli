(** Joint statistics of pairs of join events, for the correlation study
    (paper Sec. II discusses Métivier et al.'s result that join events
    decorrelate with distance on bounded-degree graphs). *)

type t

val create : pairs:(int * int) array -> t
val record : t -> bool array -> unit
(** Accumulate one run's outcome. *)

val merge : into:t -> t -> unit
(** Fold [src]'s counts into [into] (all integers, so any merge order
    gives the same statistics — safe for the parallel trial engine).
    @raise Invalid_argument when the two accumulators were created with
    different pair lists. *)

val trials : t -> int

val correlation : t -> int -> float
(** Pearson correlation coefficient of the join indicators of the [i]-th
    pair; [nan] when either indicator is degenerate (variance 0). *)

val joint_probability : t -> int -> float
(** Empirical P(both join) for the [i]-th pair. With {!trials} and
    {!marginals}, the counts behind {!correlation}; the experiments print
    only the correlation, and these are exposed so tests can check the
    counts and their merge. *)

val marginals : t -> int -> float * float
