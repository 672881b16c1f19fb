(** FairBipart as a message-passing program (paper Sec. VI, Fig. 3) for
    the {!Mis_sim} runtime — an instance of the generic {!Block_program}
    skeleton: γ superrounds of leader-table shipping with a per-hop
    complemented bit, stage-1 join iff inside a block with observed bit 1,
    then Luby over the uncovered nodes.

    With identity ids the program flips exactly the same coins as
    {!Fair_bipart.run} with the same [p]/[gamma]; on bipartite views both
    engines return identical outputs (asserted in the tests). On
    non-bipartite views the fast engine additionally repairs independence
    violations centrally, so equivalence is claimed for bipartite inputs
    only. *)

val run :
  ?p:float ->
  ?gamma:int ->
  ?tracer:Mis_obs.Trace.sink ->
  Mis_graph.View.t ->
  Rand_plan.t ->
  Mis_sim.Runtime.outcome
