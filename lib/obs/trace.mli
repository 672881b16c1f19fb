(** Structured execution traces for the synchronous simulator.

    The runtime ({!Mis_sim.Runtime}) emits one {!event} per observable
    step of an execution — run and round boundaries, every message
    transmission and its fault disposition, per-node receives, decisions,
    crashes, and algorithm-defined annotations — into a {!sink}.

    Contract for sinks and emitters:

    - {b Zero-cost when disabled.} The {!null} sink is recognized by
      physical identity; an emitter given [null] (or no sink at all) must
      skip event construction entirely, so a traced code path stays
      bit-identical to an untraced one. {!is_null} is the test.
    - {b Determinism.} Events emitted by the runtime carry only round
      numbers, node indices and message counts — no wall-clock — so the
      serialized stream of a seeded run is reproducible byte for byte
      (pinned by golden tests).
    - {b Ordering.} Events arrive in execution order: [Run_begin],
      then per round [Round_begin], the round's per-message and per-node
      events, [Round_end], and finally [Run_end].

    Node fields hold {e node indices} (positions in the graph), not the
    ids exposed to programs — traces line up with the topology even under
    randomized id assignments. *)

type drop_reason =
  | Random  (** Lost to the plan's drop probability. *)
  | Adversary  (** Dropped by the adversary callback. *)
  | Crashed_dst  (** Would have arrived at or after the destination's
                     crash round. *)

type event =
  | Run_begin of { program : string; n : int; active : int }
  | Round_begin of { round : int }
  | Round_end of {
      round : int;
      messages : int;  (** Delivered (enqueued) messages sent this round. *)
      dropped : int;
      delayed : int;
      decided : int;  (** Nodes that produced an [Output] this round. *)
      crashed : int;  (** Crash events this round. *)
    }
  | Send of { round : int; src : int; dst : int }
      (** A message transmission attempt (before the fault decision):
          [#Send = #delivered + #Drop]. *)
  | Drop of { round : int; src : int; dst : int; reason : drop_reason }
  | Delay of { round : int; src : int; dst : int; delay : int }
      (** The message was delivered [delay >= 1] rounds late. *)
  | Recv of { round : int; node : int; messages : int }
      (** Emitted once per node per round with a non-empty inbox. *)
  | Decide of { round : int; node : int; in_mis : bool }
  | Crash of { round : int; node : int }
  | Annotate of { round : int; node : int; key : string; value : int }
      (** Algorithm-defined probe ({!Mis_sim.Program.action} [Probe]). *)
  | Run_end of {
      rounds : int;
      messages : int;
      dropped : int;
      delayed : int;
      decided : int;
      in_flight : int;
          (** Enqueued messages never consumed by a receive step:
              [messages = in_flight + ] the sum of all [Recv] counts. *)
    }

val kind : event -> string
(** Stable lowercase tag, equal to the JSON ["type"] field
    (e.g. ["send"], ["round_end"]). *)

val to_json : event -> Json.t
(** One-line JSON object, e.g.
    [{"type":"send","round":3,"src":1,"dst":2}]. *)

(** {1 Sinks} *)

type sink = {
  emit : event -> unit;
  flush : unit -> unit;  (** Flush any buffered output (file sinks). *)
}

val null : sink
(** Swallows everything. Emitters must recognize it (see {!is_null}) and
    skip event construction. *)

val is_null : sink -> bool

val memory : ?capacity:int -> unit -> sink * (unit -> event list)
(** In-memory ring buffer holding the last [capacity] (default 65536)
    events; the closure returns them oldest first. Intended for tests. *)

val with_jsonl_file : string -> (sink -> 'a) -> 'a
(** Open [path], run the continuation with a {!jsonl} sink on it, close
    on the way out (also on exceptions). *)

val tee : sink list -> sink
(** Forward every event to each sink in order. [tee []] is {!null};
    null sinks in the list are skipped. *)

val counting : Metrics.t -> sink
(** Counts events into the registry as counters named
    ["trace.events.<kind>"]. *)
