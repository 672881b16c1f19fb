(** ColorMIS as a message-passing program (paper Sec. VII) for the
    {!Mis_sim} runtime — the {!Block_program} skeleton with the leader's
    uniformly random color choice shipped unchanged per hop; a node joins
    in stage 1 iff it is inside a block and its own (input) color equals
    the leader's pick; Luby covers the rest.

    The proper coloring is an input here (in a full deployment it comes
    from the distributed coloring stage that precedes ColorMIS). With
    identity ids and a proper coloring the program is outcome-identical to
    {!Color_mis.run} with the same parameters (asserted in the tests). *)

val run :
  ?p:float ->
  ?gamma:int ->
  ?tracer:Mis_obs.Trace.sink ->
  Mis_graph.View.t ->
  coloring:int array ->
  k:int ->
  Rand_plan.t ->
  Mis_sim.Runtime.outcome
