(** Minimal JSON emission and parsing, so the observability layer needs
    no external dependency. Emitted values are built directly as strings;
    emission is deterministic — fields appear exactly in the order given —
    which lets tests pin serialized traces byte for byte. The parser
    ({!parse}) reads the emitted dialect (plus standard whitespace and
    escape forms) back into a {!value} tree, and {!emit} closes the loop:
    [emit] ∘ [parse] is the identity on anything this module emitted. *)

type t = string
(** A serialized JSON value. *)

val str : string -> t
(** String literal with the mandatory escapes (quotes, backslash,
    control characters as [\uXXXX]). *)

val int : int -> t
val bool : bool -> t

val float : float -> t
(** Shortest round-trip representation; [nan]/[inf] (not representable in
    JSON) are emitted as [null]. *)

val null : t

val obj : (string * t) list -> t
(** Object with the fields in the given order. *)

val arr : t list -> t

(** {1 Parsed values} *)

type value =
  | Null
  | Bool of bool
  | Int of int
      (** Number literals without [.]/[e] that fit the [int] type. *)
  | Float of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list  (** Fields in document order. *)

val emit : value -> t
(** Serialize with the emitters above, so [emit (parse_exn (emit v)) = emit v]
    and, for values produced by {!parse}, [parse (emit v) = Ok v].
    ([Float nan]/[inf] emit as [null] and so do not round-trip; the
    runtime never emits them.) *)

val max_depth : int
(** Deepest nesting of arrays and objects {!parse} accepts (512), far
    above anything the repo emits; exposed so tests can probe the limit. *)

val parse : string -> (value, string) result
(** Parse one JSON document (the whole string). Errors carry the byte
    offset, e.g. ["offset 12: expected ':'"]; a document nested deeper
    than {!max_depth} fails at the first bracket past the limit with
    ["offset N: nesting deeper than 512"]. Integer literals wider than
    [int] degrade to [Float]. *)

(** {2 Accessors} *)

val find : value -> string -> value option
(** Field lookup; [None] on missing field or non-object. *)

val get_int : value -> int option
val get_float : value -> float option
(** [Int] promotes to float. *)

val get_string : value -> string option
val get_bool : value -> bool option
val get_list : value -> value list option
