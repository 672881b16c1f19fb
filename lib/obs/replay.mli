(** The read half of the trace pipeline: parse a JSONL stream (the output
    of {!Trace.jsonl}) back into typed {!Trace.event}s, reconstruct
    per-round and per-node statistics, and validate the runtime's
    emission invariants against the recorded stream.

    Checked invariants (see {!replay}):
    - {b stream shape} — [Run_begin] first, per round a
      [Round_begin]/[Round_end] pair bracketing that round's events with
      consecutive round numbers, [Run_end] last;
    - {b message conservation} — every [Recv] is fed by matching [Send]s:
      a send at round [s] is delivered at [s + 1] (or [s + 1 + d] with a
      [Delay]), drops remove exactly one send each, and the inbox size a
      [Recv] reports equals the number of messages delivered to that node
      at that round; deliveries may go unreceived only when the node
      already decided, crashed, or the run ended first;
    - {b accounting} — every [Round_end]'s and the [Run_end]'s counters
      equal the per-event sums ([messages = sends - drops]), and the
      [Run_end]'s [in_flight] closes conservation exactly:
      [sends = recvs + drops + in_flight];
    - {b crash silence} — a crashed node emits no send / recv / decide /
      annotate at or after its crash round;
    - {b decide partition} — each node decides at most once, decide and
      crash node sets are disjoint, and their total never exceeds the
      active-node count ([complete] records whether they exhaust it). *)

(** {1 Parsing} *)

val parse_line : string -> (Trace.event, string) result
(** Decode one JSONL line: the per-line step of {!of_jsonl}, kept so
    tests can check the decoder's error messages and round-trips. *)

val of_jsonl : string -> (Trace.event list, string) result
(** Read and parse a JSONL trace file, decoding each line as it is read;
    blank lines are skipped. The first malformed line stops the read and
    is reported as ["FILE:LINE: ..."] (1-based) so the message is
    directly clickable/grep-able. *)

(** {1 Replay} *)

type round_stat = {
  r_messages : int;
  r_dropped : int;
  r_delayed : int;
  r_decided : int;
  r_crashed : int;
}

type summary = {
  program : string;
  n : int;
  active : int;
  rounds : int;  (** Last round number (= [Run_end.rounds]). *)
  sends : int;  (** Transmission attempts. *)
  delivered : int;  (** [sends - dropped]; equals the outcome's
                        [messages]. *)
  dropped : int;
  delayed : int;
  decided : int;
  crashed : int;
  received : int;  (** Total messages reported by [Recv] events. *)
  in_flight : int;
      (** [Run_end.in_flight]: enqueued messages never consumed by a
          receive step; always [delivered - received]. *)
  annotations : int;
  complete : bool;  (** [decided + crashed = active]. *)
  wasted_to_decided : int;
      (** Messages still pending at run end whose destination had already
          decided before the delivery round — "in flight at decide". *)
  wasted_to_crashed : int;
      (** Pending messages whose destination crashed before delivery. *)
  in_flight_end : int;
      (** Pending messages whose (delayed) delivery round lies past the
          end of the run. [wasted_to_decided + wasted_to_crashed +
          in_flight_end = in_flight]. *)
  round_stats : round_stat array;  (** Length [rounds + 1] (round 0 is
                                       the init step). *)
  decide_round : int array;  (** Per node index; [-1] if undecided. *)
  in_mis : bool array;  (** Per node index; only meaningful where
                            [decide_round >= 0]. *)
  crash_round : int array;  (** Per node index; [max_int] if alive. *)
}

val replay : ?max_errors:int -> Trace.event list -> (summary, string list) result
(** Validate the invariants above and reconstruct the summary. On failure
    returns every violation found in stream order (at most [max_errors],
    default 20, plus a suppression note). *)

type delivery_index = {
  di_slices : Trace.event list array;
      (** Per round: the stream suffix right after the round's
          [Round_begin]. Bookmarks, not copies — sender lookups scan a
          round's slice lazily via {!index_first_sender}, so building
          the index allocates a handful of words rather than a
          (rounds x nodes) matrix (whose GC pressure alone broke the
          analyzer's <5% overhead budget). *)
  di_dirty : bool array;
      (** Per round: whether it contained a drop or delay, i.e. whether
          a sender lookup must do per-sender net accounting. *)
  di_drops : (int * int) list;  (** [(send round, dst)] per [Drop]. *)
}

val index_first_sender : delivery_index -> round:int -> dst:int -> int
(** First [src] in stream order with a net undelayed delivery into
    [dst] sent at [round] (arriving at [round + 1]); [max_int] if none.
    The runtime emits sends in slot order within a round, so on full
    static views this is the smallest such sender. Cost: fault-free
    rounds stop scanning the round's slice at the first match; rounds
    flagged in [di_dirty] sweep it for per-sender net accounting. *)

val empty_index : delivery_index
(** Index with no deliveries, annotations, or drops. *)

val replay_indexed :
  ?max_errors:int ->
  Trace.event list ->
  (summary * delivery_index, string list) result
(** {!replay} that additionally builds the delivery index
    {!Causal.analyze} walks. Collected inside replay's existing event
    pass — per-round bookmarks only, no per-send work — so this stays
    within a few percent of plain {!replay} (the [causal/analyze-n1000]
    bench row gates it). *)

val replay_file : ?max_errors:int -> string -> (summary, string list) result
(** {!of_jsonl} composed with {!replay}; parse errors come back as a
    single-element error list. *)
