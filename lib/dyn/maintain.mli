(** The incremental maintainer: keeps a live MIS valid across batches of
    topology events by re-running Luby only on the dirty neighborhood,
    inside a robustness envelope (per-batch timeout, bounded retry with
    an escalating repair radius, full recompute as the
    graceful-degradation floor, and an invariant checker that hard-fails
    fast in strict mode).

    {b Repair scheme.} Applying a batch marks {e seed} nodes whose
    validity may have broken: endpoints of an inserted member–member
    edge, the un-covered endpoint of a deleted member/non-member edge,
    joined nodes, and the former neighbors of a departed or crashed
    member (Ghaffari's locality analysis, arXiv:1506.05093, justifies
    repairing only such neighborhoods). The dirty set is the seeds,
    optionally widened by BFS to the rung's radius, closed under
    "every alive neighbor of a dirty member is dirty" (those neighbors
    may lose their cover). Members outside the dirty set are {e frozen}:
    dirty nodes adjacent to a frozen member are covered and drop out;
    the rest form the {e region}, an induced subgraph handed to Luby
    with the {e global} node numbers as ids, so a node's coins do not
    depend on how the region was carved. The union of the frozen part
    and the region's MIS is an MIS of the whole live graph.

    {b Region build.} Both rungs read the live graph through
    {!Dyn_graph.deg} and {!Dyn_graph.nbr} in closure-free loops. A
    [Radius] rung's region is the sorted dirty set minus the
    frozen-covered nodes; a [Full_recompute]'s is every alive node, in
    slot order. The marks, lists and region CSR are the maintainer's
    own, reused by every attempt, so an attempt allocates in proportion
    to its region, not to the capacity.

    {b Kernel.} The region goes to {!Mis_sim.Kernel.of_slots} as is: its
    node list is the id array (ascending, as that constructor checks)
    and the CSR is read in place, with no edge list, graph, view or
    renumbering in between. {!Mis_sim.Kernel.luby} then sweeps it on the
    [Rand_plan.Stage.luby_main] coins of the attempt's seed, with the
    default budget for the region's size, or for the whole capacity on a
    full recompute. The kernel is bit-identical to Luby's message
    program on the engine under any slot order, and [test/test_dyn.ml]
    rebuilds every batch's region and checks the engine decides it as
    the maintainer did.

    {b Degradation ladder.} An attempt fails when it exceeds the
    per-batch timeout or leaves region nodes undecided; the maintainer
    then backs off and retries at the next rung ([Radius 1] → [Radius 2]
    → … → [Full_recompute] by default). State is only committed on an
    accepted attempt, so retries always start from the pre-repair MIS. *)

type rung =
  | Radius of int  (** Repair the dirty set widened to this BFS radius
                       ([Radius 1] = the seeds' own closure). Must be
                       [>= 1]. *)
  | Full_recompute  (** Re-run Luby on the whole live graph. *)

type config = {
  ladder : rung list;  (** Attempt order; must be non-empty. *)
  strict : bool;  (** Invariant violations raise instead of self-healing. *)
  check_every : int;
      (** Run {!check} every this many batches (1 = every batch; 0 =
          only when called). One pass over the live graph in place,
          O(capacity + edges), allocating nothing. *)
  timeout : float option;  (** Per-attempt repair budget, seconds. *)
  backoff : int -> float;
      (** Seconds to wait before retry [attempt] (first retry = 2). *)
  sleep : float -> unit;
  clock : unit -> float;  (** Injectable for fault-injected timeout tests. *)
  seed : int;  (** Base seed; attempt coins derive from (seed, batch,
                   attempt). *)
  metrics : Mis_obs.Metrics.t option;  (** [dyn.*] counters/histograms. *)
  decisions : Mis_obs.Trace.sink;
      (** Receives one [Decide {round = batch; node; in_mis}] per
          re-decided node of each accepted batch. *)
}

val default_config : config
(** Ladder [[Radius 1; Radius 2; Full_recompute]],
    non-strict, [check_every = 0], no timeout, zero backoff, wall clock,
    seed 1, no metrics, null decisions sink. *)

type t

exception Invariant_violation of string
(** Strict-mode checker failure, or a batch exhausting every rung. *)

val create : ?config:config -> capacity:int -> unit -> t
(** An empty universe: the initial topology bootstraps through
    [Node_join] events like any other churn.
    @raise Invalid_argument on [capacity < 1], an empty or invalid
    ladder, [check_every < 0], or a non-positive timeout. *)

val config : t -> config
val graph : t -> Dyn_graph.t
val mis : t -> bool array
(** Current membership by node slot (a copy; dead slots are [false]). *)

type report = {
  batch : int;  (** 1-based. *)
  events : int;  (** Events received in the batch. *)
  applied : int;
  skipped : int;  (** Inapplicable events (dead endpoint, occupied slot,
                      duplicate edge, …) — skipped and counted. *)
  dirty : int;  (** Dirty-set size at the accepted rung. *)
  region_nodes : int array;
      (** Sorted global numbers of the nodes Luby re-decided. *)
  rounds : int;  (** Simulator rounds of the accepted attempt. *)
  attempts : int;  (** 1 = the first rung sufficed. *)
  escalated : bool;  (** [attempts > 1]. *)
  full_recompute : bool;  (** The accepted rung was [Full_recompute]. *)
  repair_seconds : float;  (** Wall clock across all attempts. *)
  flips : int;  (** Membership changes vs before the batch. *)
  live : int;  (** Alive nodes after the batch. *)
}

val apply_batch : t -> Event.t list -> report
(** Apply the events, repair, and (per [check_every] / [strict]) verify.
    In non-strict mode a checker violation is counted
    ([dyn.invariant_violations]), healed by a forced full recompute, and
    re-verified.
    @raise Invariant_violation as documented on {!exception-Invariant_violation}. *)

val check : t -> (unit, string) result
(** Run the invariant checker now: the maintained membership must be a
    maximal independent set of the surviving (alive) subgraph. A full
    check, independent of the repair: {!Dyn_graph.classify} over every
    slot and its adjacency, with the verdicts of
    {!Mis_graph.Check.is_surviving_mis} and no snapshot built. Never
    raises; [Error] carries a diagnostic. *)
