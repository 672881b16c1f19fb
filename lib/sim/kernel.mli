(** Data-parallel execution backend: the core MIS programs compiled to
    flat frontier sweeps over a CSR index of their own, in the style of
    omega_h's [indset] and the GraphBLAS MIS — no message inboxes, no
    per-round allocation in the steady state.

    {b Equivalence contract.} On a perfect network (no faults), each
    entry point below is bit-identical to executing the corresponding
    message program on {!Runtime.Engine} over the same view and ids:
    same [output] and [decided] arrays, the same per-node decision
    round, and the same [rounds] total — including the [max_rounds]
    cutoff behavior, where decisions scheduled past the cutoff do not
    happen and [rounds = max_rounds] is reported. The outcome depends on
    the graph and the ids only, not on node indices: relabelling the
    nodes (with [~ids] keeping each node's id) moves the outcome along.
    The QCheck suite in [test/test_kernel.ml] pins both across
    topologies, seeds and engine reuse.

    What the kernel deliberately does {e not} support: fault plans
    (drops, delays, crashes) and event tracing. Those are properties of
    the message transport; experiments that need them run on the message
    backend. *)

type outcome = {
  output : bool array;  (** Per node index: MIS membership. *)
  decided : bool array;
  decide_round : int array;
      (** Round at which the node's decision would be emitted by the
          message engine; [-1] when the node never decided (inactive
          node, or cut off by [max_rounds]). *)
  mutable rounds : int;  (** Last executed round, engine semantics. *)
  mutable simulated : int;
      (** FairTree: the stage participants, summed over the three stages,
          whose component had a node farther than [gamma] hops from its
          max id and so ran the round simulation. 0 for Luby. *)
}
(** A run's result. {!luby} and {!fair_tree} write it; [rounds] and
    [simulated] are mutable so that a caller can hand one outcome to run
    after run ([?into]) instead of allocating three n-word arrays per
    run. *)

type t
(** A compiled kernel: a slot-to-node map, the CSR adjacency over slots
    its sweeps read, a slot-to-id array (the slot-to-node map itself
    under the identity ids), and pooled sweep scratch. Slots are
    numbered in BFS order, which no result depends on: every sweep
    compares ids, never slots, and writes outcomes by node index. Unlike an
    engine, a kernel is safe to share across domains: each run takes its
    own scratch from a lock-free free list (allocating one only when the
    list is empty) and returns it when the run ends, so concurrent runs
    never share mutable state and the scratch count is bounded by the
    number of runs in flight. Compile once per view and call {!luby} /
    {!fair_tree} from any domain.

    One scratch kind serves both programs: four slot arrays (three int
    arrays and a byte per slot). A FairTree run on the queue path adds
    one byte per CSR entry to the scratch it ran in, and a component that
    runs the round simulation adds four more int arrays; a kernel that
    only ever ran Luby, or whose FairTree runs all took the forest path,
    holds neither. *)

val create : ?ids:int array -> Mis_graph.View.t -> t
(** Compile [view] and the optional index-to-id map (default the
    identity). One pass numbers the slots, BFS from each still
    unnumbered active node in index order, and writes each slot's
    usable neighbours as it is dequeued, so a node's neighbours sit a
    few slots away whatever its index; a masked view first counts its
    slots and usable entries. The message engine keeps {!Csr}'s index
    order, which its FIFO delivery order follows.

    The same pass, with no temporary array, puts each slot's first
    neighbour numbered before it at the front of its adjacency, and
    records whether the view is a forest: whether its entries number
    twice its slots less its BFS roots. On a forest that first neighbour
    is the slot's BFS parent, which {!fair_tree} sweeps read. It is a
    property of the view, not an option.

    @raise Invalid_argument with the engine's messages
    (["Runtime.run: ids length"], ["Runtime.run: duplicate ids"]) when
    [ids] has the wrong length or assigns one id to two active nodes. *)

val of_slots : ids:int array -> off:int array -> adj:int array -> t
(** A kernel over a slot CSR the caller holds: slot [s] is node index
    [s] with id [ids.(s)] and neighbours [adj.(off.(s) .. off.(s+1) - 1)],
    which must be symmetric and free of duplicates. [ids], [off] and
    [adj] are read in place, not copied; [off] and [adj] may run past the
    entries read. One linear pass checks the offsets, the entries' range,
    self-loops, and that [ids] ascend strictly (so are distinct), as a
    repair region's do.
    @raise Invalid_argument ["Kernel.of_slots: ..."] when a check fails. *)

val reload : t -> ids:int array -> off:int array -> adj:int array -> unit
(** Point a kernel from {!of_slots} at another slot CSR, with the same
    checks and messages, keeping its scratch: a caller that repairs
    region after region on one kernel allocates a scratch only when a
    region outgrows every earlier one. Only for a kernel its caller owns
    alone: no run may be in flight on it, on any domain. A kernel from
    {!create}, which domains may share, is never reloaded.
    @raise Invalid_argument ["Kernel.reload: not from of_slots"] on a
    kernel from {!create}, or as {!of_slots} when a check fails (the
    kernel is then unchanged). *)

val n : t -> int
(** Node indices of the compiled view: the length of a fresh outcome's
    arrays. *)

val make_outcome : t -> outcome
(** A fresh outcome for this kernel's node indices (every node
    undecided), to pass as [?into]. *)

val luby :
  ?max_rounds:int ->
  ?into:outcome ->
  value_of:(round:int -> node:int -> int) ->
  t ->
  outcome
(** Luby's algorithm as array sweeps. Per phase: draw [value_of] for the
    live frontier, scan each frontier node's live neighbors for a strict
    (value, id) lexicographic minimum, decide winners, mask winners and
    their neighbors out, compact the frontier in place. [value_of] is
    keyed by the program-visible id, matching the message program's
    [Rand_plan.node_value] draw. [max_rounds] defaults to the engine's
    budget for [n] nodes, [64 + 64 * ceil(log2 (max n 2))].

    With [into], the run resets that outcome's first [n t] entries (its
    arrays may be longer), writes its result there and returns it; a
    warm run then allocates only the cons cell that gives its scratch
    back. Without, it returns a fresh outcome. The result is the same either way,
    whatever [into] or the kernel's scratch held before.
    @raise Invalid_argument when an array of [into] is shorter than
    [n t]. *)

type fair_tree_coins = {
  cut : u:int -> v:int -> bool;
      (** Edge-cut coin; called with [u < v] (program ids). *)
  bit1 : int -> bool;  (** Stage-1 leader parity bit, by id. *)
  bit2 : int -> bool;
  bit3 : int -> bool;
  luby_value : round:int -> node:int -> int;  (** Fallback Luby values, by id. *)
}

val fair_tree :
  ?max_rounds:int ->
  ?into:outcome ->
  gamma:int ->
  coins:fair_tree_coins ->
  t ->
  outcome
(** The FairTree stage pipeline, into [into] or a fresh outcome as
    {!luby}: three CntrlFairBipart stages, each
    [gamma] rounds of flood-max over its allowed edges and then [gamma]
    rounds of BFS adoption from the flood leaders, then the membership
    updates (I1, I2, uncovered, I3, the I4 independence repair) and the
    Luby fallback on whatever remains undecided after round
    [6*gamma + 5].

    On a kernel whose view is a forest, each stage is two forward
    sweeps over the slots in BFS order. The first joins each participant
    to its parent's component when the edge is allowed (uncut in stage
    1, between two participants in stages 2 and 3) and carries the
    component's root, each depth below it and the max-id node; the
    second draws one bit per multi-node component at its root and sets
    each participant's membership from its depth's parity. Coverage is
    one parent/child sweep, and the stages leave the I4 repair and the
    fallback nothing to do (I3 is independent and dominating), so one
    more sweep writes the outcome. No per-entry bytes are allocated.
    Depths count hops below the component's root. When some component
    has [depth(max) + depth(deepest member) > gamma], a node may lie more
    than [gamma] hops from the max, and the trial restarts on the queue
    path.

    The queue path, which graphs with cycles, kernels from {!of_slots}
    and those restarts take, resolves each stage one connected
    component of its allowed edges at a time: one queue traversal finds
    the component's max id (a component of one node is decided there),
    a BFS from it writes every node's depth, and when no node is more
    than [gamma] hops away that is exactly what the [2*gamma] rounds
    compute. A component with a farther node runs the exact round
    simulation instead and counts toward [outcome.simulated]. This path
    keeps one byte per CSR entry for the allowed edges. Adjacency is
    scanned only for a stage's participants, I2 and I3; the stage's work
    besides is a few passes over one byte per slot.

    The coin closures carry the {!Rand_plan} draws so this module stays
    independent of the core library; [cut] is drawn from one end of a
    tree edge only. [max_rounds] defaults to the message runner's
    [6*gamma + 6 + 64*(ceil(log2 (max n 2)) + 2)].

    @raise Invalid_argument when [gamma < 1]. *)
