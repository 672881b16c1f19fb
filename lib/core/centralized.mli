(** The centralized greedy baseline: sequential MIS under a uniformly
    random node ordering — a natural "as fair as greedy gets" baseline
    (its output distribution equals one full run of the permutation-based
    Luby variant). *)

val greedy_random_permutation :
  Mis_graph.View.t -> Mis_util.Splitmix.t -> bool array
