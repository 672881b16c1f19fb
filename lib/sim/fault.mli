(** Deterministic fault injection for the synchronous simulator.

    A fault {!plan} describes an unreliable network: per-edge message-drop
    probabilities, crash-stop schedules, bounded message delay (which also
    reorders deliveries), and an optional adversary that picks worst-case
    drops. Every random choice is drawn from a {!Mis_util.Splitmix} stream
    keyed by [(seed, round, src, dst, sequence)], so a faulty execution is
    a pure function of the program seed plus the fault plan: re-running
    with the same plan reproduces the same drops, delays and crashes
    bit-for-bit.

    The zero plan ({!none}, or [create ()] with all defaults) injects
    nothing; {!Runtime.run} behaves exactly as if no plan was supplied. *)

type adversary = round:int -> src:int -> dst:int -> bool
(** Worst-case drop hook, consulted once per message (node indices).
    Returning [true] drops the message (counted as a drop). The adversary
    runs before the random drop roll and must be deterministic for runs to
    be reproducible. *)

type t

val none : t
(** The zero plan: nothing is dropped, delayed or crashed. *)

val create :
  ?seed:int ->
  ?drop:float ->
  ?edge_drop:(src:int -> dst:int -> float) ->
  ?crashes:(int * int) list ->
  ?max_delay:int ->
  ?adversary:adversary ->
  unit ->
  t
(** [create ()] is {!none}. Optional components:

    - [seed] (default 0) keys the fault randomness, independently of the
      algorithm's own coins;
    - [drop] (default 0) is the uniform per-message drop probability in
      [\[0, 1\]];
    - [edge_drop ~src ~dst] overrides [drop] per directed edge (node
      indices); it must be deterministic;
    - [crashes] lists [(node, round)] crash-stop events: node [node]
      (index) executes no step from round [round] on and never sends or
      receives again. Round 0 crashes suppress even the initial actions;
    - [max_delay] (default 0) delays each delivered message by a uniform
      extra [0 .. max_delay] rounds, which reorders deliveries across
      rounds;
    - [adversary] may additionally drop any message.

    @raise Invalid_argument if [drop] is outside [\[0, 1\]], [max_delay]
    is negative, a crash node or round is negative, or a node is
    scheduled to crash twice — bad schedules fail at construction, not
    mid-run. *)

val is_none : t -> bool
(** [true] iff the plan can inject no fault (no positive drop probability
    is configured, no crashes, no delay, no adversary). [edge_drop] is
    conservatively treated as potentially faulty. *)

val drop_prob : t -> src:int -> dst:int -> float
val max_delay : t -> int
val adversary : t -> adversary option

val crash_rounds : t -> n:int -> int array
(** Per-node crash round, [max_int] for nodes that never crash.
    @raise Invalid_argument if a scheduled node index is [>= n] (the
    only constraint that needs the topology; the rest is enforced by
    {!create}). *)

val drop_roll : t -> round:int -> src:int -> dst:int -> seq:int -> float
(** The keyed uniform draw in [\[0, 1)] deciding whether the [seq]-th
    message from [src] to [dst] in [round] is dropped. *)

val delay_roll : t -> round:int -> src:int -> dst:int -> seq:int -> int
(** The keyed uniform draw in [\[0 .. max_delay\]] for the same message.
    Always 0 when [max_delay] is 0. *)
