(** Distributed graph colorings — the substrate ColorMIS combines with
    (paper Sec. VII cites Barenboim–Elkin's arboricity-based coloring for
    planar / low-arboricity graphs).

    Two algorithms:
    - a randomized greedy (deg+1)-coloring, O(log n) rounds w.h.p., usable
      on any graph;
    - an H-partition (arboricity peeling) coloring: peel nodes of degree
      <= bound into layers, then color layers top-down with palette
      [0 .. bound], giving at most [bound+1] colors — for planar graphs
      (arboricity <= 3) a constant palette. *)

type outcome = {
  colors : int array;
      (** Color per active node; [-1] for inactive nodes or (with
          vanishing probability) nodes that exceeded the round budget —
          the paper's footnote 3 lets such nodes proceed uncolored. *)
  palette : int;  (** Exclusive upper bound on assigned colors. *)
  rounds : int;
}

val randomized_greedy :
  ?stage:int -> ?max_rounds:int -> Mis_graph.View.t -> Rand_plan.t -> outcome
(** Each uncolored node repeatedly proposes a uniform color from
    [{0 .. deg(v)}] minus its colored neighbors' colors, keeping it when no
    uncolored neighbor proposed the same color. [palette] = Δ_view + 1. *)

val h_partition_partial :
  Mis_graph.View.t -> degree_bound:int -> int array * int * bool array
(** [(layer, layer_count, core)]: repeatedly peel all active nodes with
    residual degree <= bound, as far as possible; the stuck high-degree
    core comes back as a mask ([layer = -1] for core nodes). The core is
    empty exactly when the graph's degeneracy is within the bound. This
    is the peeling {!hybrid} and {!planar} colour by, exposed so tests
    can check the layers and the core directly. *)

val hybrid :
  ?stage:int ->
  ?max_rounds_per_layer:int ->
  Mis_graph.View.t ->
  Rand_plan.t ->
  degree_bound:int ->
  outcome
(** Color the stuck core with the (deg+1) greedy palette, then the peeled
    layers top-down with palette [0 .. degree_bound]. Low-arboricity
    regions therefore use at most [degree_bound + 1] colors even when the
    graph contains dense cores — the coloring behind the paper's Sec. VII
    remark about per-region fairness. *)

val planar : ?stage:int -> Mis_graph.View.t -> Rand_plan.t -> outcome
(** The H-partition coloring with bound 7 (= ⌊(2+ε)·3⌋ for planar
    arboricity 3, ε ≈ 1/3),
    i.e. at most 8 colors; falls back to [randomized_greedy] if peeling
    stalls (which cannot happen on planar inputs). *)
