(** Allocation-free FIFO queue of ints, backed by a growable ring buffer.

    The BFS and frontier-propagation hot loops use this instead of the
    boxed [Stdlib.Queue]. *)

type t

val create : ?capacity:int -> unit -> t
val is_empty : t -> bool
val length : t -> int
(** Queued items; the model test compares it with [Stdlib.Queue]'s. *)

val push : t -> int -> unit
val pop : t -> int
(** @raise Invalid_argument if the queue is empty. *)

val clear : t -> unit
