(** Luby's original "Algorithm A" [Luby 1986]: in each phase every live
    node marks itself with probability 1/(2·d(v)) (isolated nodes always
    mark); if two adjacent nodes are both marked, the one of {e lower}
    degree unmarks (ties broken by id). Marked survivors join the MIS and
    leave the graph with their neighbors. O(log n) phases in expectation.

    This is the degree-based sibling of the random-priority variant in
    {!Luby}; its fairness profile differs (the marking probability already
    discriminates by degree), so the evaluation reports both. *)

val run : ?stage:int -> Mis_graph.View.t -> Rand_plan.t -> bool array

type message =
  | Marked of { degree : int }
  | In_mis
  | Withdraw

type state

val run_distributed :
  ?stage:int ->
  ?tracer:Mis_obs.Trace.sink ->
  Mis_graph.View.t ->
  Rand_plan.t ->
  Mis_sim.Runtime.outcome
