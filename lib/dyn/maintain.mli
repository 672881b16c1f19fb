(** The incremental maintainer: keeps a live MIS valid across batches of
    topology events by re-running Luby only on the dirty neighborhood,
    once per batch, with an invariant checker that heals a violation by
    a full recompute, or hard-fails fast in strict mode.

    {b Repair scheme.} Applying a batch marks {e seed} nodes whose
    validity may have broken: endpoints of an inserted member–member
    edge, the un-covered endpoint of a deleted member/non-member edge,
    joined nodes, and the former neighbors of a departed or crashed
    member (Ghaffari's locality analysis, arXiv:1506.05093, justifies
    repairing only such neighborhoods). The dirty set is the seeds
    closed under "every alive neighbor of a dirty member is dirty"
    (those neighbors may lose their cover). Members outside the dirty
    set are {e frozen}: dirty nodes adjacent to a frozen member are
    covered and drop out; the rest form the {e region}, an induced
    subgraph handed to Luby with the {e global} node numbers as ids, so
    a node's coins do not depend on how the region was carved. The
    union of the frozen part and the region's MIS is an MIS of the whole
    live graph.

    {b Region build.} The repair reads the live graph through
    {!Dyn_graph.deg} and {!Dyn_graph.nbr} in closure-free loops. An
    incremental region is the sorted dirty set minus the frozen-covered
    nodes; a full recompute's is every alive node, in slot order. The
    marks, lists and region CSR are the maintainer's own, reused by every
    batch, so a repair allocates in proportion to its region, not to the
    capacity.

    {b Kernel.} The maintainer holds one Luby kernel from
    {!Mis_sim.Kernel.of_slots} and one outcome, both its own, and each
    repair {!Mis_sim.Kernel.reload}s the kernel with the region as is:
    its node list is the id array (ascending, as the kernel checks) and
    the CSR is read in place, with no edge list, graph, view or
    renumbering in between. {!Mis_sim.Kernel.luby} then sweeps it into
    the outcome on the [Rand_plan.Stage.luby_main] coins of the batch's
    seed. The kernel's scratch and the outcome grow with the largest
    region and are never allocated per repair. The kernel is
    bit-identical to Luby's message program on the engine under any slot
    order, and [test/test_dyn.ml] rebuilds every batch's region and
    checks the engine decides it as the maintainer did.

    {b One repair, run to completion; heal = full recompute.} Each batch
    gets exactly one repair, and it runs until every region node is
    decided: each Luby phase decides at least the frontier's (value, id)
    minimum, so a k-node region finishes within 3k rounds and no round
    budget, timeout or retry is needed. A slow repair is committed, never
    discarded. The one other repair is the heal: when a non-strict check
    fails, the violation is counted and the whole live graph is
    recomputed on the batch's second seed. *)

type config = {
  incremental : bool;
      (** Repair the dirty neighborhood ([true], the default) or recompute
          the whole live graph on every batch ([false]: the baseline that
          prices what locality buys). *)
  strict : bool;  (** Invariant violations raise instead of self-healing. *)
  check_every : int;
      (** Run {!check} every this many batches (1 = every batch; 0 =
          only when called). One pass over the live graph in place,
          O(capacity + edges), allocating nothing. *)
  clock : unit -> float;
      (** Times each repair for the report's [repair_seconds]; injectable so
          tests can pin repair latency. *)
  seed : int;  (** Base seed; repair coins derive from (seed, batch). *)
  metrics : Mis_obs.Metrics.t option;  (** [dyn.*] counters/histograms. *)
  decisions : Mis_obs.Trace.sink;
      (** Receives one [Decide {round = batch; node; in_mis}] per
          re-decided node of each batch. *)
}

val default_config : config
(** Incremental, non-strict, [check_every = 0], wall clock, seed 1, no
    metrics, null decisions sink. *)

type t

exception Invariant_violation of string
(** A failed check in strict mode. (In non-strict mode the heal's full
    recompute is re-checked too, and raises this only if the live graph
    itself is inconsistent.) *)

val create : ?config:config -> capacity:int -> unit -> t
(** An empty universe: the initial topology bootstraps through
    [Node_join] events like any other churn.
    @raise Invalid_argument on [capacity < 1] or [check_every < 0]. *)

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
  dirty : int;  (** Dirty-set size (every alive node on a full
                    recompute); a healed batch adds the heal's. *)
  region_nodes : int array;
      (** Sorted global numbers of the nodes Luby re-decided (every
          alive node when healed). *)
  rounds : int;  (** Kernel rounds of the repair, plus the heal's. *)
  escalated : bool;  (** A failed check was healed by a full recompute. *)
  full_recompute : bool;
      (** The batch was recomputed in full ([incremental = false]) or
          healed. *)
  repair_seconds : float;  (** [clock] time of the repair. *)
  flips : int;
      (** Memberships the batch's repair changed, plus those its heal
          changed. *)
  live : int;  (** Alive nodes after the batch. *)
}

val apply_batch : t -> Event.t list -> report
(** Apply the events, repair, and (per [check_every] / [strict]) verify.
    In non-strict mode a checker violation is counted
    ([dyn.invariant_violations]), healed by a full recompute, and
    re-verified.
    @raise Invariant_violation as documented on {!exception-Invariant_violation}. *)

val check : t -> (unit, string) result
(** Run the invariant checker now: the maintained membership must be a
    maximal independent set of the surviving (alive) subgraph. A full
    check, independent of the repair: {!Dyn_graph.classify} over every
    slot and its adjacency, with the verdicts of
    {!Mis_graph.Check.is_surviving_mis} and no snapshot built. Never
    raises; [Error] carries a diagnostic. *)
