(** Batched topology events: the wire format of the dynamic-MIS service.

    A long-running deployment (the paper's WAP backbone scenario) never
    sees a one-shot graph: access points join, leave, crash, and radio
    links flap. An {!t} describes one such change against the live
    topology held by a {!Dyn_graph.t}; streams of events arrive as JSONL
    (one event per line, emitted with {!Mis_obs.Json} so the dialect
    matches the trace pipeline) and are applied in batches by
    {!Maintain.apply_batch}.

    Wire format ({!to_json} writes the fields in this order and
    {!parse_line} ∘ {!to_json} is the identity; readers accept any
    order):
    {v
    {"type":"node_join","node":7,"edges":[2,5]}
    {"type":"node_leave","node":3}
    {"type":"edge_insert","u":1,"v":4}
    {"type":"edge_delete","u":1,"v":4}
    {"type":"node_crash","node":9}
    {"type":"batch"}
    v}
    The [batch] line is a flush marker for stream consumers (see
    {!Serve}); it is not an event and {!of_json} rejects it. *)

type t =
  | Node_join of { node : int; edges : int list }
      (** A new node appears together with its incident links. Edges to
          nodes that are not currently alive are skipped (and counted) at
          apply time. *)
  | Node_leave of { node : int }
      (** Clean departure: the node and all its links are removed; the
          slot may be reused by a later join. *)
  | Edge_insert of { u : int; v : int }
  | Edge_delete of { u : int; v : int }
  | Node_crash of { node : int }
      (** Crash-stop: the node is dead but its links remain in the
          structure; the slot is never reused (crash-stop semantics,
          matching {!Mis_graph.Check.is_surviving_mis}). *)

val kind : t -> string
(** Stable lowercase tag, equal to the JSON ["type"] field. *)

val to_json : t -> Mis_obs.Json.t
(** One-line JSON object in the wire format above. *)

val of_json : Mis_obs.Json.value -> (t, string) result
(** Typed view of one parsed object. Rejects unknown types, missing or
    mistyped fields, negative node numbers, and self-loop edges. *)

val parse_line : string -> (t, string) result
(** One wire line as an event: the same result, [Ok] or [Error] text
    byte for byte, as {!of_json} composed with {!Mis_obs.Json.parse}.
    The usual line is scanned straight into an {!t}, with no JSON tree
    and no per-token copy: one flat object whose keys, each at most
    once and in any order, are among the wire format's, written without
    escapes, with non-negative integers of at most 18 digits. Any other
    line (an extra key, an escape, a duplicate key, a negative or long
    number, any error) takes the JSON parser; [test/test_dyn.ml] checks
    the two agree on generated and mutated lines. *)

val batch_marker : string
(** The flush-marker line, [{"type":"batch"}]. *)

val is_batch_marker : Mis_obs.Json.value -> bool
(** Whether a parsed object is a flush marker: its first ["type"] field
    is ["batch"], whatever else it carries. *)

(** What a line of a stream is to its consumer. *)
type line =
  | Event of t
  | Batch  (** A flush marker ({!is_batch_marker}). *)
  | Blank  (** Nothing but the whitespace [String.trim] removes. *)
  | Malformed of string  (** The error {!parse_line} would return. *)

val decode : string -> line
(** {!parse_line} for a stream consumer: [Blank] for a line of only
    whitespace, [Batch] for any flush marker, else {!parse_line}'s
    result. The direct scan recognises a plain marker too; every line it
    does not accept is classified through the JSON parser. *)
