(** Binary min-heap of integer items keyed by float priorities.

    Used by Prim's algorithm and the geometric workload generators. *)

type t

val create : ?capacity:int -> unit -> t
val is_empty : t -> bool
val push : t -> priority:float -> int -> unit
val pop_min : t -> float * int
(** Remove and return the (priority, item) pair with the smallest priority.
    @raise Invalid_argument if the heap is empty. *)

