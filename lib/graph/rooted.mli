(** Rooted trees and forests, represented by parent pointers.

    FairRooted (paper Sec. IV) operates in this model: every internal node
    knows its parent; roots have parent [-1]. A rooted forest also arises
    inside FairRooted stage 2, where covered nodes drop out and their
    children become roots of residual subtrees. *)

type t = { n : int; parent : int array }

val of_parents : int array -> t
(** Validates that parent pointers are in range, acyclic, and not
    self-referential. Roots are entries equal to [-1]. The system roots
    trees with {!of_tree} and forests with {!restrict}; this builds the
    arbitrary forests the tests run FairRooted and Cole–Vishkin on. *)

val of_tree : Graph.t -> root:int -> t
(** Root an unrooted tree at [root] by a BFS orientation.
    @raise Invalid_argument if the graph is not a tree. *)

val children : t -> int array array

val to_graph : t -> Graph.t
(** Forget the orientation: the underlying undirected forest. *)

val restrict : t -> keep:bool array -> t
(** Residual rooted forest on the kept nodes: a kept node whose parent is
    dropped (or is a root) becomes a root; otherwise its parent pointer is
    preserved. Dropped nodes get parent [-1] but should be ignored by the
    caller (pair this with the same [keep] mask). *)
