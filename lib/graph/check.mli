(** Correctness oracles used by tests and by the experiment harness after
    every single simulated run (the paper requires independence and
    maximality to hold always, not just with high probability). *)

type verdict = Mis | Not_independent | Not_maximal

val classify : View.t -> bool array -> verdict
(** One closure-free pass over the graph's CSR and the view's masks.
    [Not_independent] when two active members are joined across a usable
    edge (reported even when maximality fails too), else [Not_maximal]
    when some active non-member has no active member neighbor, else
    [Mis]. Allocates nothing. *)

val member_neighbor : View.t -> bool array -> int -> bool
(** [member_neighbor view set u]: some neighbor of [u] across a usable
    edge is in [set] ({!View.exists_adj} without the closure). *)

val surviving_view : View.t -> crashed:bool array -> View.t
(** [view] with the crashed nodes additionally masked out: the subgraph a
    faulty execution actually served: what {!is_surviving_mis} checks,
    exposed so the tests build their oracles of it on the same subgraph.
    @raise Invalid_argument if [crashed] does not have length [View.n]. *)

val is_surviving_mis : View.t -> crashed:bool array -> bool array -> bool
(** Graceful-degradation oracle for faulty runs: [in_set] is a maximal
    independent set of the {!surviving_view} — independence and coverage
    are required only among the nodes that did not crash-stop. With an
    all-[false] mask this is [classify view in_set = Mis]. *)

val is_proper_coloring : View.t -> int array -> bool
(** Every active node has a color [>= 0] differing from all active
    neighbors' colors. *)

val count_colors : int array -> int
(** Number of distinct non-negative colors. *)
