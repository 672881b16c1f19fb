(** MIS problem definitions (paper Sec. III): result records and the
    correctness predicates every algorithm must satisfy on every run —
    termination, independence and maximality. *)

exception Invalid of string

val verify : name:string -> Mis_graph.View.t -> bool array -> unit
(** @raise Invalid with a diagnostic when the set is not an MIS of the
    active subgraph. *)

val remove_violations : Mis_graph.View.t -> bool array -> bool array
(** FairTree stage-4 repair: drop {e every} member that has a member
    neighbor (both endpoints of each violation leave). Returns a fresh
    array. *)

val uncovered : Mis_graph.View.t -> bool array -> bool array
(** Active nodes that are neither in the set nor adjacent to it. *)
