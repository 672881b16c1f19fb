(** Masked sub-views of a graph.

    The stage structure of the paper's algorithms constantly works on
    subgraphs of the input: FairTree stage 1 drops the cut edges, stage 2
    runs on the subgraph induced by the current independent set, stage 3 on
    the uncovered nodes, and every fallback runs Luby on the residual graph.
    A view masks nodes and/or edges of an underlying {!Graph.t} without
    copying it. Node indices are unchanged: inactive nodes simply do not
    participate. *)

type t

val full : Graph.t -> t
(** Every node and edge active. *)

val restrict : ?nodes:bool array -> ?edges:bool array -> Graph.t -> t
(** [restrict ?nodes ?edges g] masks the graph. [nodes] has length [n]
    ([true] = active), [edges] has length [m]. An edge is usable only if
    its own mask bit is set {e and} both endpoints are active. The arrays
    are captured, not copied. *)

val graph : t -> Graph.t
val n : t -> int
(** [n] of the underlying graph (including inactive nodes). *)

val node_mask : t -> bool array option
val edge_mask : t -> bool array option
(** The masks given to {!restrict} ([None] = all active), shared, not
    copied, for closure-free index loops. Read-only. *)

val node_active : t -> int -> bool
val edge_active : t -> int -> bool
(** Edge-mask bit only; does not consider endpoint activity. *)

val usable_edge : t -> int -> bool
(** Edge mask bit set and both endpoints active. *)

val iter_active : t -> (int -> unit) -> unit
val count_active : t -> int
val active_nodes : t -> int array

val iter_adj : t -> int -> (int -> unit) -> unit
(** Active neighbors of [u] reachable through active edges. [u] itself is
    not required to be active (stage logic sometimes probes coverage of a
    node that already dropped out). *)

val iter_adj_e : t -> int -> (int -> int -> unit) -> unit
val degree : t -> int -> int
(** Active degree, computed by scanning the adjacency of [u]. *)

val exists_adj : t -> int -> (int -> bool) -> bool
(** Some neighbour of [u] satisfies the predicate. The closure form of
    {!Check.member_neighbor}, kept as its test oracle. *)
