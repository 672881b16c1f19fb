(** Disjoint-set union (union–find) with union by rank and path compression.

    Used for connected-component bookkeeping: sizing threshold-graph
    components in the real-world radius search and building bipartite
    workloads. *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets labelled [0 .. n-1]. *)

val find : t -> int -> int
(** Canonical representative of the set containing the element. *)

val union : t -> int -> int -> bool
(** [union t a b] merges the two sets; returns [false] if they were already
    the same set. *)

val same : t -> int -> int -> bool
(** Whether two elements are in the same set. With {!find}, how the
    tests observe the merges {!union} makes for the MST and tree builds. *)

val count : t -> int
(** Number of distinct sets. *)

val size : t -> int -> int
(** Size of the set containing the element. *)
