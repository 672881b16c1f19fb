(** Minimal CSV output for experiment results. *)

val write : path:string -> header:string list -> string list list -> unit
(** RFC-4180-ish: fields containing commas, quotes or newlines are quoted
    with doubled inner quotes. *)
