(** Immutable undirected graphs in compressed sparse row (CSR) form.

    Nodes are the integers [0 .. n-1]. Every undirected edge has an id in
    [0 .. m-1]; each of its two directed arcs carries that id, which lets
    algorithms mask edges in O(1) (see {!View}). Self-loops and parallel
    edges are rejected at construction. *)

type t

val of_edges : n:int -> (int * int) list -> t
(** Build a graph from an edge list.
    @raise Invalid_argument on out-of-range endpoints, self-loops or
    duplicate edges (in either orientation). When an input has several
    faults, an out-of-range endpoint or a self-loop is reported ahead of
    any duplicate. *)

val of_edge_array : n:int -> (int * int) array -> t
(** {!of_edges} over an array. Duplicates are found by one stamp pass
    over the finished CSR rows, with no hashing of edges. *)

val of_parents : int array -> t
(** [of_parents parents] builds the tree in which node [i > 0] is joined
    to [parents.(i)], with [parents.(0) = -1] marking the root. Edge
    [i - 1] is [(parents.(i), i)], and node ids, edge ids and adjacency
    order are bit-identical to
    [of_edge_array ~n [| (1, parents.(1)); ...; (n-1, parents.(n-1)) |]]
    — but construction is direct CSR fill in O(n) int arrays with no
    edge tuples, lists or hash tables, which is what makes n = 10^6
    topologies cheap to materialize.
    @raise Invalid_argument unless [parents.(0) = -1] and
    [0 <= parents.(i) < i] for every [i >= 1] (which guarantees a simple
    acyclic connected tree). *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of undirected edges. *)

val degree : t -> int -> int
val max_degree : t -> int

val edge_endpoints : t -> int -> int * int
(** Endpoints [(u, v)] with [u < v] of the edge with the given id. *)

val edges : t -> (int * int) array
(** All edges, normalized to [u < v], indexed by edge id. The returned
    array is fresh; mutating it does not affect the graph. *)

val mem_edge : t -> int -> int -> bool
(** Adjacency test by scanning the smaller list ([false] out of range).
    The system reads adjacency through {!iter_adj} and the CSR arrays;
    the tests probe the generators' and CSR builders' edges with it. *)

val iter_adj : t -> int -> (int -> unit) -> unit
(** [iter_adj g u f] calls [f v] for every neighbor [v] of [u]. *)

val iter_adj_e : t -> int -> (int -> int -> unit) -> unit
(** [iter_adj_e g u f] calls [f v e] for every neighbor [v] of [u], where
    [e] is the id of the edge [{u, v}]. *)

val neighbors : t -> int -> int array
(** Fresh array of the neighbors of a node, in {!iter_adj} order: how
    the tests compare the adjacency of two CSR builds. *)

val csr_off : t -> int array
val csr_adj : t -> int array
val csr_adj_edge : t -> int array
(** The CSR arrays themselves, shared with the graph, not copied, for
    closure-free index loops: for [i] in
    [csr_off.(u) .. csr_off.(u + 1) - 1], [csr_adj.(i)] is a neighbor of
    [u] and [csr_adj_edge.(i)] the id of that edge, in {!iter_adj_e}
    order. Read-only: mutating them corrupts the graph. *)
