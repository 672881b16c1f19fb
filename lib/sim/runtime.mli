(** Synchronous executor: the paper's discrete network simulator.

    Runs one {!Program} instance per active node of a graph {!Mis_graph.View},
    delivering each round's messages at the start of the next round, and
    accounting rounds, message volume, and (optionally) the largest message
    size so the [O(log n)]-bit CONGEST discipline of the model can be
    asserted in tests.

    {b FIFO delivery contract.} A node's inbox lists its round's messages
    in arrival (enqueue) order: messages from nodes earlier in the active
    order come first, and multiple messages from one sender appear in the
    order they were sent. Under fault-plan delays the same rule applies to
    the delivery round — a delayed message is enqueued at send time into
    its (later) delivery round and sorts by that enqueue time.

    An optional fault {!Fault.t} plan makes the network unreliable:
    messages can be dropped (randomly or adversarially) or delayed a
    bounded number of rounds, and nodes can crash-stop on a schedule. All
    fault decisions are keyed deterministic draws, so a faulty run is
    reproducible from the program seed and the plan alone.

    An optional {!Mis_obs.Trace.sink} tracer receives a structured event
    stream (round boundaries, every message and its fault disposition,
    receives, decisions, crashes, program [Probe] annotations). With no
    tracer — or with {!Mis_obs.Trace.null}, recognized by identity — no
    event is even constructed and the execution is bit-identical to the
    untraced runtime. Independently of tracing, per-round aggregates are
    always collected into [outcome.round_stats]. *)

type round_stat = {
  rs_messages : int;  (** Messages sent (and enqueued) this round. *)
  rs_dropped : int;  (** Messages lost this round. *)
  rs_delayed : int;  (** Messages sent this round that will arrive late. *)
  rs_decided : int;  (** Nodes that produced their [Output] this round. *)
  rs_crashed : int;  (** Nodes that crash-stopped this round. *)
}

type outcome = {
  output : bool array;
      (** Per node index; meaningful only for nodes active in the view
          that reached a decision. *)
  decided : bool array;  (** Whether the node produced an [Output]. *)
  rounds : int;  (** Communication rounds executed. *)
  messages : int;  (** Total point-to-point messages delivered. *)
  max_message_bits : int;  (** 0 unless [size_bits] was provided. *)
  dropped : int;
      (** Messages lost to random drops, the adversary, or a crashed
          destination. 0 on a perfect network. *)
  delayed : int;
      (** Delivered messages that arrived at least one round late. *)
  in_flight : int;
      (** Enqueued messages never consumed by a [receive] step: deliveries
          scheduled past the last executed round (or past [max_rounds]),
          or addressed to a node that decided or crashed before their
          delivery round. [messages = in_flight + ] the total of all
          [Recv] message counts, so message conservation closes exactly:
          sends = receives + drops + in-flight. *)
  crashed : bool array;
      (** Nodes that crash-stopped during the run (before deciding the
          flag matters; a crash after [Output] is a no-op). All-[false]
          on a perfect network. *)
  round_stats : round_stat array;
      (** Per-round aggregates, index = round number; entry 0 covers the
          initial step (round 0), so the length is [rounds + 1]. Sums
          across rounds equal the corresponding totals above. *)
}

(** Compiled executor: the topology-dependent part of a run — the
    {!Csr} slot maps and neighbor index, plus the engine's own neighbor
    id arrays, node contexts and flat message buffers — built once from
    a view and reused across seeded trials.
    {!run} is a thin [create]-then-[exec] wrapper; Monte-Carlo drivers
    that execute thousands of trials on one topology should create the
    engine once (per domain) and call {!Engine.exec} per trial. *)
module Engine : sig
  type ('s, 'm) t
  (** A compiled view plus reusable run state. One engine is {e not}
      thread-safe: share nothing, build one engine per domain. The
      [neighbor_ids] arrays exposed through {!Node_ctx.t} are shared
      across all runs of the engine and must not be mutated by
      programs. *)

  val create : ?ids:int array -> Mis_graph.View.t -> ('s, 'm) t
  (** Compile [view] (and the optional node-index-to-id map, default the
      identity) into an engine. Performs the id validation documented
      under {!run}, raising [Invalid_argument] with the same messages. *)

  val view : ('s, 'm) t -> Mis_graph.View.t
  (** The view the engine was compiled from. *)

  val exec :
    ?max_rounds:int ->
    ?size_bits:('m -> int) ->
    ?faults:Fault.t ->
    ?tracer:Mis_obs.Trace.sink ->
    rng_of:(int -> Mis_util.Splitmix.t) ->
    ('s, 'm) t ->
    ('s, 'm) Program.t ->
    outcome
  (** Run one seeded trial, resetting the engine's scratch state in
      place. Semantics, event stream and outcome are bit-identical to
      {!run} on the engine's view with the engine's ids — including under
      fault plans and tracers, which may differ from call to call. *)
end

val run :
  ?max_rounds:int ->
  ?size_bits:('m -> int) ->
  ?ids:int array ->
  ?faults:Fault.t ->
  ?tracer:Mis_obs.Trace.sink ->
  rng_of:(int -> Mis_util.Splitmix.t) ->
  Mis_graph.View.t ->
  ('s, 'm) Program.t ->
  outcome
(** [run ~rng_of view program] executes [program] on every active node.

    [ids] maps node index to the unique identifier exposed to programs
    (default: the index itself). [rng_of index] supplies each node's
    private random stream. Execution stops when every active live node has
    decided, or after [max_rounds] (default [64 + 64 * ceil(log2 n)])
    rounds, whichever comes first.

    [faults] (default {!Fault.none}) injects message drops, bounded
    delays and crash-stops as described in {!Fault}. With the zero plan
    the execution — outputs, rounds, message counts — is identical to a
    run without the argument. A node whose crash round is [r] performs no
    step from round [r] on (round 0 = the initial step); undelivered
    messages to it count as dropped, and the run terminates once every
    non-crashed active node has decided.

    [tracer] (default none) receives the structured event stream of the
    execution, in order: [Run_begin]; then per round [Round_begin],
    [Crash], [Recv], [Send] / [Drop] / [Delay], [Annotate], [Decide],
    [Round_end]; finally [Run_end]. Event node fields are node {e
    indices}. The stream contains no wall-clock component, so for a fixed
    seed and plan it is reproducible byte for byte. Passing
    {!Mis_obs.Trace.null} is equivalent to passing nothing.

    @raise Invalid_argument if [ids] contains duplicates among active
    nodes, if a program sends to an id that is not its neighbor, or if the
    fault plan schedules a crash for an out-of-range node. *)

module Kernel = Kernel
(** The data-parallel sibling backend (see {!Kernel}): same compiled
    {!Csr} topology, array sweeps instead of message passing,
    bit-identical decisions on a perfect network. *)
