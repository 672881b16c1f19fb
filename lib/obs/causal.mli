(** Causal critical-path analysis over a replayed trace.

    The happens-before DAG of a synchronous run has one vertex per
    (node, round) pair a node was alive and undecided for, a
    program-order edge [(u, r-1) -> (u, r)] for every such consecutive
    pair, and a delivery edge [(src, s) -> (dst, r)] for every message
    sent at round [s] and delivered at round [r] — [r = s + 1] for
    undelayed sends, [r = s + 1 + d] under a [Delay {delay = d}]
    (FIFO-per-sender, bounded delay — the engine's documented delivery
    semantics). Drops remove their send, crashes truncate a node's
    program-order chain, and a decide ends it at the decide round.

    Because every alive, undecided node steps every round, every vertex
    [(u, r)] is reachable from round 0 through its own program-order
    chain, so the longest path into [(u, r)] has exactly [r] edges. The
    critical path to global termination therefore has length equal to
    the round of the last [Decide] — the termination round — on complete
    runs, and can only be shorter when faults leave nodes undecided.
    What the analysis adds over the round count is the {e identity} of
    the chain: walking back from the terminal decide and preferring
    delivery edges over local steps recovers the causal message chain
    that forced the termination round, which phases it ran through, and
    how much slack every other node had. *)

type edge_kind =
  | Start  (** The round-0 vertex opening the path. *)
  | Local  (** Program-order: same node, previous round. *)
  | Delivery of { src : int }
      (** A message sent by [src] at the previous round forced this
          step. Delayed deliveries never lie on a longest path (their
          send is [>= 2] rounds back), so critical deliveries are always
          undelayed. *)

type step = { node : int; round : int; via : edge_kind }

type waste = {
  w_to_decided : int;  (** {!Replay.summary.wasted_to_decided}. *)
  w_to_crashed : int;  (** {!Replay.summary.wasted_to_crashed}. *)
  w_run_end : int;  (** {!Replay.summary.in_flight_end}. *)
  w_critical_drops : int;
      (** Drops whose delivery would have landed on a critical-path
          vertex — faults that plausibly lengthened the run. *)
}

type t = {
  summary : Replay.summary;
  termination : int;
      (** Round of the last [Decide]; [-1] when nothing decided. *)
  terminal : int;
      (** Node of the last [Decide] (smallest index on ties); [-1] when
          nothing decided. *)
  path : step array;
      (** Chronological critical path to global termination;
          [path.(0).via = Start], one step per round up to
          [termination]. Empty iff [termination = -1]. *)
  delivery_steps : int;
  local_steps : int;  (** [delivery_steps + local_steps = length]. *)
  node_steps : (int * int) list;
      (** Critical-path steps per node, descending — the topology
          regions the path runs through. *)
  waste : waste;
}

val length : t -> int
(** Edges on the critical path: [max 0 (Array.length path - 1)]. Equals
    [summary.rounds] on complete fault-free runs. *)

val slack : t -> int array
(** Per node: [termination - decide_round], i.e. how many rounds earlier
    than global termination it decided; [-1] for nodes that never
    decided (crashed or truncated). Computed on demand — it is an
    [n]-sized array, and allocating it eagerly inside {!analyze} would
    cost the analyzer part of its <5%-over-replay overhead budget. *)

val analyze :
  ?summary:Replay.summary -> Trace.event list -> (t, string list) result
(** Validate and summarize the stream (via {!Replay.replay} unless a
    [summary] of the same events is supplied), then reconstruct the
    critical path. Errors are replay errors — an invalid stream has no
    well-defined DAG. *)

val blame : t -> Trace.event list -> (string * int) list
(** Critical-path steps per algorithm phase, descending. The phase of a
    step is the node's most recent [Annotate] key at or before that
    round; ["(none)"] before the first annotation. [events] must be the
    stream [t] was built from. Computed on demand by one scan of the
    events — collecting annotations inside {!analyze}'s replay pass is
    what broke its <5%-over-replay overhead budget. The [blame:] line of
    {!render}; exposed so tests can pin the per-phase counts. *)

val decide_path : t -> Trace.event list -> int -> step array
(** [decide_path t events u]: the critical path to node [u]'s own
    [Decide] (empty when [u] never decided). [events] must be the
    stream [t] was built from. The path to global termination is
    [decide_path t events t.terminal]. *)

(** {1 Perfetto export}

    Chrome trace-event JSON ({ul {- one object,
    [{"displayTimeUnit": "ms", "traceEvents": [...]}]}}) loadable in
    Perfetto / [chrome://tracing]. *)

val protocol_timeline : t -> Trace.event list -> Json.t
(** Protocol view: one track (thread) per node, one 1 ms slice per
    (node, round) vertex named by its phase, decide / crash instants,
    and the critical path bound into a flow chain. [events] must be the
    stream [t] was built from. *)

val execution_timeline : Prof.span_record list -> Json.t
(** Execution view from raw profiler spans (see {!Prof.global_spans}):
    one track per domain, one slice per span, microsecond timestamps
    rebased to the earliest span. With [FAIRMIS_PROF_SPANS=1] the
    [parallel.chunk] spans give the per-domain chunk timeline of a
    trial run — the load-imbalance picture. *)

val validate_timeline : Json.value -> (unit, string) result
(** Schema check for the two exporters' output (used by tests and the
    CLI): a [traceEvents] array of objects each carrying a one-char
    [ph], an integer [pid], a [name], and — for non-metadata events —
    numeric [ts] (plus [dur] on ["X"] slices, [id] on flow events). *)

val render : ?top:int -> t -> Trace.event list -> string
(** Multi-line text summary: termination, path composition, top [top]
    (default 5) blame rows, slack aggregates and waste counters.
    [events] must be the stream [t] was built from (blame is recovered
    from its [Annotate] records). *)
