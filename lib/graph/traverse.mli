(** Breadth-first traversals, connectivity and structural predicates, all
    operating on masked {!View}s so they can serve the per-stage subgraphs
    of the MIS algorithms. *)

val bfs_from : View.t -> int -> int array
(** Distance from the source through active nodes/edges; [-1] for
    unreachable or inactive nodes. The source must be active. *)

val components : View.t -> int array * int
(** [(label, count)]: [label.(u)] is a component index in [0 .. count-1]
    for each active node, [-1] for inactive ones. *)

val component_members : int array -> int -> int array array
(** [component_members label count] groups node indices by label. *)

val diameter_exact : View.t -> int
(** Max eccentricity over active nodes (per component); 0 on empty views.
    O(n·m): intended for tests and small graphs. *)

val is_forest : View.t -> bool
(** The active subgraph has no cycle. The system asks {!is_tree}; the
    tests check the MST's spanning forests, per component, with it. *)

val is_tree : View.t -> bool
(** Connected forest with at least one node. *)

val bipartition : View.t -> int array option
(** Two-coloring with colors 0/1 per active node ([-1] inactive) when the
    active subgraph is bipartite; [None] when an odd cycle exists. *)
