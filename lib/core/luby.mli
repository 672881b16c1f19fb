(** Luby's randomized MIS algorithm [Luby 1986], the baseline of the
    paper's evaluation (Sec. IX) and the maximality fallback of FairTree,
    FairBipart and ColorMIS.

    Variant: the random-priority comparison. In each phase every live node
    draws a uniform value; a node whose (value, id) pair is a strict local
    minimum joins the MIS, after which it and its neighbors leave the
    graph. O(log n) phases with high probability. *)

type stats = { phases : int }

val run : ?stage:int -> Mis_graph.View.t -> Rand_plan.t -> bool array
(** The MIS over the active subgraph: compiles the view into a
    {!Mis_sim.Kernel} and runs {!run_kernel_on} on it, with no round
    cutoff. [stage] defaults to [Rand_plan.Stage.luby_main]; composite
    algorithms pass their own stage tag so the fallback coins are
    independent of earlier stages. *)

val run_stats : ?stage:int -> Mis_graph.View.t -> Rand_plan.t -> bool array * stats
(** {!run} plus its phase count (3 rounds per phase). *)

type completion = {
  mis : bool array;  (** The maximal independent set. *)
  repaired : bool array;  (** The input set after violation removal. *)
  fallback_nodes : int;  (** Nodes left uncovered by [repaired]. *)
  luby_rounds : int;  (** [3 * phases] of the fallback run; 0 if none. *)
}

val complete :
  stage:int -> Mis_graph.View.t -> Rand_plan.t -> bool array -> completion
(** The last stage of FairBipart and ColorMIS: drop both endpoints of
    every independence violation in the set, then run {!run_stats} with
    the given [stage] tag on the nodes it leaves uncovered. *)

(** Messages of the distributed program (3 rounds per phase). *)
type message =
  | Value of int  (** My priority this phase. *)
  | In_mis  (** I joined; you are covered. *)
  | Withdraw  (** I halted (joined or covered); remove me. *)

type state

val program : Rand_plan.t -> stage:int -> (state, message) Mis_sim.Program.t
(** Faithful message-passing implementation: the oracle of the kernel
    sweeps. With default ids (the node index) the kernel flips exactly the
    same coins, so both return identical sets — asserted in the test
    suite. *)

val run_distributed :
  ?stage:int ->
  ?tracer:Mis_obs.Trace.sink ->
  Mis_graph.View.t ->
  Rand_plan.t ->
  Mis_sim.Runtime.outcome
(** Simulator execution. The program emits a [("luby.phase", p)] probe as
    each node enters phase [p] (visible only when tracing). *)

val run_distributed_on :
  ?stage:int ->
  ?tracer:Mis_obs.Trace.sink ->
  (state, message) Mis_sim.Runtime.Engine.t ->
  Rand_plan.t ->
  Mis_sim.Runtime.outcome
(** {!run_distributed} on a prebuilt {!Mis_sim.Runtime.Engine}: identical
    results, amortizing view compilation across seeded trials (build the
    engine once per domain and call this per trial). *)

val run_kernel_on :
  ?stage:int ->
  ?into:Mis_sim.Kernel.outcome ->
  Mis_sim.Kernel.t ->
  Rand_plan.t ->
  Mis_sim.Kernel.outcome
(** The same algorithm on a prebuilt data-parallel {!Mis_sim.Kernel}
    (the fast, reusing path): decisions, MIS membership and per-node
    decision rounds bit-identical to {!run_distributed}, with no message
    allocation. Unlike {!run_distributed_on}, this may be called
    concurrently from several domains on one shared kernel. [into] as
    in {!Mis_sim.Kernel.luby}: the run writes into that outcome, which
    must then be the calling domain's own. *)
