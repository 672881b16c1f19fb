(** Plain-text table rendering for experiment reports. *)

val render : header:string list -> string list list -> string
(** Left-aligned first column, right-aligned rest, with a rule under the
    header. The layout {!print} writes, exposed so tests can check it
    without capturing stdout. *)

val print : header:string list -> string list list -> unit

val float_cell : float -> string
(** 2 decimals; "inf" for infinity. *)
