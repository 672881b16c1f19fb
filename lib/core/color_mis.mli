(** ColorMIS (paper Sec. VII): the k-fair MIS for k-colorable graphs.

    Given a proper coloring, run {!Construct_block} shipping a uniformly
    random color [c_u ∈ [k]] with each leader's flood (unchanged per hop);
    a node joins I iff it is in a block and its own color equals its
    leader's chosen color. Two neighbors in the same block can then never
    both join (their colors differ), so I is independent; Luby covers the
    rest. Every node joins with probability Ω(1/k) (Theorem 17), and for
    planar graphs the built-in coloring gives a constant k and O(log^2 n)
    rounds overall (Corollary 18). *)

type trace = {
  in_block : bool array;
  i1 : bool array;
  fallback_nodes : int;
  rounds : int;  (** Includes the coloring rounds when [run_planar] is used. *)
}

val gamma_default : n:int -> int

val run :
  ?p:float ->
  ?gamma:int ->
  Mis_graph.View.t ->
  coloring:int array ->
  k:int ->
  Rand_plan.t ->
  bool array
(** [coloring] must be proper on the active subgraph with colors in
    [0 .. k-1] (uncolored nodes may carry [-1]; they simply never join in
    stage 1, matching the paper's footnote 3). *)

val run_planar :
  ?p:float -> ?gamma:int -> Mis_graph.View.t -> Rand_plan.t -> bool array * trace
(** Compose the built-in planar coloring (<= 8 colors) with [run]. *)

val run_adaptive :
  ?p:float ->
  ?gamma:int ->
  Mis_graph.View.t ->
  coloring:int array ->
  Rand_plan.t ->
  bool array * trace
(** The paper's no-advance-knowledge-of-k variant: "the leader in each
    block counts the colors before randomly choosing one". Each leader
    picks uniformly among the distinct colors {e present in its block}, so
    a node's stage-1 join probability is Ω(1) / (colors in its block) —
    good inequality factors in regions of the graph that are colorable
    with few colors, even when the global palette is large (Sec. VII
    remark). *)
