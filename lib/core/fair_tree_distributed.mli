(** FairTree as a genuine message-passing program (paper Sec. V, Fig. 2),
    for execution on the {!Mis_sim} runtime.

    The global round schedule (all nodes know n and γ, so all stage
    boundaries are synchronized, exactly as the paper prescribes —
    "non-participants simply wait that number of rounds"):

    - rounds 0..2γ: stage 1 — CntrlFairBipart over the uncut edges (each
      node derives the shared coin of every incident edge from the
      randomness plan);
    - 1 round: announce membership in I₁;
    - 2γ rounds: stage 2 — CntrlFairBipart on the subgraph induced by I₁;
    - 2 rounds: announce I₂, then announce uncovered status;
    - 2γ rounds: stage 3 — CntrlFairBipart on the uncovered nodes;
    - 2 rounds: announce I₃, then announce the repaired I₄;
    - stage 4: covered nodes terminate; the rest run Luby's algorithm
      (3 rounds per phase) until termination.

    The program is the oracle of the kernel sweeps below: on a perfect
    network both produce identical outputs, decision rounds and round
    counts for any seed — asserted by the test suite. {!Fair_tree.run}
    is the kernel path over a view. *)

val gamma_default : n:int -> int
(** γ = 4·⌈lg n⌉ + 2: large enough that the union-bound argument of
    Lemma 11 gives ε < 1/n. *)

type state

val program :
  plan:Rand_plan.t -> gamma:int -> (state, Messages.t) Mis_sim.Program.t

val run :
  ?gamma:int ->
  ?tracer:Mis_obs.Trace.sink ->
  Mis_graph.View.t ->
  Rand_plan.t ->
  Mis_sim.Runtime.outcome
(** Execute on the simulator with identity ids and a round budget of
    [6γ + O(log n)] rounds. When tracing, each node emits probes as it
    learns its stage memberships ([fairtree.i1], [fairtree.i2],
    [fairtree.i4]) and when it enters the Luby fallback
    ([fairtree.luby_fallback]). *)

val run_on :
  ?gamma:int ->
  ?tracer:Mis_obs.Trace.sink ->
  (state, Messages.t) Mis_sim.Runtime.Engine.t ->
  Rand_plan.t ->
  Mis_sim.Runtime.outcome
(** {!run} on a prebuilt engine, which may carry caller-chosen ids: the
    message-engine oracle the tests hold {!run_kernel_on} to, also under
    relabelled ids. *)

val run_kernel :
  ?gamma:int -> Mis_graph.View.t -> Rand_plan.t -> Mis_sim.Kernel.outcome
(** The same protocol on the data-parallel {!Mis_sim.Kernel} backend
    (stage sweeps instead of messages): decisions, MIS membership and
    per-node decision rounds bit-identical to {!run}. *)

val run_kernel_on :
  ?gamma:int ->
  ?into:Mis_sim.Kernel.outcome ->
  Mis_sim.Kernel.t ->
  Rand_plan.t ->
  Mis_sim.Kernel.outcome
(** {!run_kernel} on a prebuilt kernel (the fast, reusing path); safe to
    call concurrently from several domains on one shared kernel. [into]
    as in {!Mis_sim.Kernel.fair_tree}: the run writes into that outcome,
    which must then be the calling domain's own. *)

val message_bits : n:int -> Messages.t -> int
(** Size accounting: every message fits in O(log n) bits. *)
