(** FairTree (paper Sec. V, Fig. 2): the fair MIS algorithm for unrooted
    trees. Four stages:

    + {b Cut}: every edge is cut with probability 1/2 (a shared edge coin);
      CntrlFairBipart with D̂ = γ builds a fair MIS in each resulting
      component.
    + {b Resolve}: CntrlFairBipart runs again on the subgraph induced by
      the current set I, dropping one side of each cross-component
      conflict.
    + {b Maximalize}: CntrlFairBipart runs on the still-uncovered nodes;
      joiners are added.
    + {b Fix}: any residual independence violations are removed and Luby's
      algorithm covers whatever is left — a fallback that triggers only
      when some component's diameter exceeded γ (probability < 1/n for the
      default γ).

    On a tree this guarantees P(join) >= (1-ε)/4 with ε < 1/n
    (Theorem 8), i.e. an inequality factor approaching 4.

    This module is the centralized entry: it runs the stage pipeline as
    {!Mis_sim.Kernel} sweeps. {!Fair_tree_distributed} holds the message
    program, which is the kernel's oracle. *)

type trace = {
  fallback_nodes : int;  (** How many nodes ran the Luby fallback. *)
  rounds : int;
      (** Rounds of the run: [6γ + 5] without fallback, more with it, and
          0 on an empty view. *)
  simulated : int;
      (** Stage participants, summed over the three CntrlFairBipart
          stages, that the kernel decided by simulating rounds because
          their component had a node more than γ hops from its max id
          (see {!Mis_sim.Kernel.outcome}); 0 when every component is
          smaller than γ. *)
}

val run : ?gamma:int -> Mis_graph.View.t -> Rand_plan.t -> bool array
(** Compiles the view into a {!Mis_sim.Kernel} and runs
    {!Fair_tree_distributed.run_kernel_on} on it; [gamma] defaults to
    {!Fair_tree_distributed.gamma_default}. The view may be any graph —
    correctness (a valid MIS) is unconditional; the fairness guarantee
    holds when the active subgraph is a forest.

    @raise Invalid_argument when [gamma < 1]. *)

val run_traced :
  ?gamma:int -> Mis_graph.View.t -> Rand_plan.t -> bool array * trace
