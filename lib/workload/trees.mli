(** Tree topologies used throughout the paper's evaluation (Sec. IX):
    complete k-ary trees, the "alternating" trees that isolate local degree
    variation, and assorted synthetic families for wider testing. Nodes are
    numbered in BFS order from the root (node 0). *)

val complete_kary : branch:int -> depth:int -> Mis_graph.Graph.t
(** Complete [branch]-ary tree with levels [0 .. depth].
    [branch=2, depth=10] gives the paper's 2047-node binary tree;
    [branch=5, depth=5] the 3906-node 5-ary tree. *)

val alternating : branch:int -> depth:int -> Mis_graph.Graph.t
(** Paper's alternating tree: internal nodes at even depth have [branch]
    children, internal nodes at odd depth have exactly one child.
    [branch=10, depth=5] → 1221 nodes; [branch=30, depth=3] → 961 nodes. *)

val path : int -> Mis_graph.Graph.t
val star : int -> Mis_graph.Graph.t
(** [star n] has [n] nodes: hub 0 and [n-1] leaves (Sec. I example). *)

val spider : legs:int -> leg_length:int -> Mis_graph.Graph.t
(** [legs] paths of [leg_length] nodes glued to a hub. *)

val caterpillar : spine:int -> legs_per_node:int -> Mis_graph.Graph.t

val random_prufer : Mis_util.Splitmix.t -> n:int -> Mis_graph.Graph.t
(** Uniformly random labeled tree (Prüfer decoding). [n >= 1]. *)

val preferential_attachment : Mis_util.Splitmix.t -> n:int -> Mis_graph.Graph.t
(** Each node attaches to an earlier node chosen proportionally to degree,
    producing hub-heavy trees (high Luby unfairness). *)

val random_attachment_xl : Mis_util.Splitmix.t -> n:int -> Mis_graph.Graph.t
(** A uniform attachment tree: node [i >= 1] attaches to a parent drawn
    uniformly from [0 .. i-1], in index order. Built by direct CSR fill
    ([Graph.of_parents] of the parent array) — O(n) int arrays, no
    intermediate edge list — for topologies in the 10^5..10^7 node range
    ([engine/xl] benches and smoke tests). [n >= 1]. *)
