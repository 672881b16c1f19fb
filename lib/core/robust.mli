(** Fault-tolerant execution of synchronous programs.

    The paper's algorithms assume a perfect synchronous network; under the
    simulator's fault layer ({!Mis_sim.Fault}) a single lost message can
    stall a phase forever or break independence. This module hardens any
    {!Mis_sim.Program} with the two standard defenses:

    - {b re-broadcast until quiescent}: each logical round of the wrapped
      program is stretched over [repeats] physical rounds during which the
      round's messages are re-sent every round and the incoming copies are
      accumulated and de-duplicated, so a message survives unless all
      [repeats] copies are dropped (probability [p^repeats] under
      independent drops);
    - {b timeout/fallback}: a node that has not decided after [timeout]
      logical rounds outputs the [fallback] decision ([false] = stay out
      of the MIS, which can cost coverage but never independence), so the
      computation terminates under arbitrary loss.

    Without faults, [repeats = 1] runs exactly the unwrapped program, and
    any [repeats] yields the same MIS output (only round/message
    accounting changes) — both asserted in the test suite. *)

val run_luby :
  ?repeats:int ->
  ?timeout:int ->
  ?faults:Mis_sim.Fault.t ->
  ?tracer:Mis_obs.Trace.sink ->
  ?stage:int ->
  Mis_graph.View.t ->
  Rand_plan.t ->
  Mis_sim.Runtime.outcome
(** Luby's algorithm hardened by the wrapper, executed under the given
    fault plan. Coins are drawn exactly as in {!Luby.run_distributed}.
    [timeout] defaults to [32 + 16⌈lg n⌉] logical rounds: generous next to
    Luby's [O(log n)] w.h.p. bound, so the fallback fires only when loss
    genuinely starves a phase. *)

val run_fair_tree :
  ?repeats:int ->
  ?timeout:int ->
  ?faults:Mis_sim.Fault.t ->
  ?tracer:Mis_obs.Trace.sink ->
  ?gamma:int ->
  Mis_graph.View.t ->
  Rand_plan.t ->
  Mis_sim.Runtime.outcome
(** FairTree hardened by the wrapper under the given fault plan. Coins
    are drawn exactly as in {!Fair_tree_distributed.run}. [timeout]
    defaults to the fixed [6γ + 6] stage schedule plus Luby's budget. *)
