(** The live topology of the dynamic-MIS service: a mutable undirected
    graph over a fixed universe of node slots [0 .. capacity-1], each
    slot absent, alive, or crashed.

    The static {!Mis_graph.Graph.t} is an immutable CSR — right for the
    batch simulator, wrong for a structure mutated by every churn event.
    This module keeps each slot's neighbours in a flat array together
    with a twin array: [twin.(u).(i)] is where [u] sits in the list of
    its [i]-th neighbour. A link's far-end entry is therefore found
    without a search, so {!leave} and the swap-removals of
    {!delete_edge} cost O(1) per link. Finding a link from its two
    endpoints ({!insert_edge}, {!delete_edge}, {!mem_edge}) scans the
    shorter of their two lists: O(min (deg u, deg v)). No hash table is
    kept, and a slot that leaves keeps its arrays, so a warm
    join / insert / leave cycle allocates nothing.

    Readers scan a slot's links with {!deg} and {!nbr}; the layout
    stays inside this module.

    Semantics of the three slot states:
    - {b absent}: never joined, or left cleanly; the slot is reusable;
    - {b alive}: participates in the MIS;
    - {b crashed}: crash-stop — dead forever, links kept (they become
      unusable because the endpoint is masked), slot never reused. *)

type state = Absent | Alive | Crashed

type t

val create : capacity:int -> t
(** All slots absent. @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int
val state : t -> int -> state
val alive : t -> int -> bool
val alive_count : t -> int

val deg : t -> int -> int
(** Links at the slot, those to crashed slots included. *)

val nbr : t -> int -> int -> int
(** [nbr g u i], for [i < deg g u]: [u]'s [i]-th neighbour, in an order
    fixed by the history of inserts and swap-removals. *)

(** {1 Mutation} — all raise [Invalid_argument] on out-of-range nodes;
    semantic misuses (joining an occupied slot, linking a dead node)
    return [false] and change nothing, so the maintainer can skip and
    count them without exceptions. *)

val join : t -> int -> bool
(** Make an absent slot alive (without edges). [false] if alive/crashed. *)

val leave : t -> int -> bool
(** Remove an alive node and all its edges. [false] unless alive. *)

val crash : t -> int -> bool
(** Mark an alive node crashed, keeping its edges. [false] unless alive. *)

val insert_edge : t -> int -> int -> bool
(** [false] on self-loop, a dead endpoint, or an existing edge. *)

val delete_edge : t -> int -> int -> bool
(** [false] unless the edge exists between two alive nodes. *)

val mem_edge : t -> int -> int -> bool
(** Whether the link exists, whatever its endpoints' states. The system
    reads links through the slot arrays; the tests' snapshot oracle of
    {!classify} reads them here, links at crashed slots included. *)

(** {1 Reading} *)

val classify : t -> bool array -> Mis_graph.Check.verdict
(** [classify g set]: whether [set] (indexed by slot) is a maximal
    independent set of the alive subgraph, with the verdicts and
    precedence of {!Mis_graph.Check.classify}: [Not_independent] when two
    alive members are linked (reported even when maximality fails too),
    else [Not_maximal] when some alive non-member has no alive member
    neighbour, else [Mis]. Bits on absent and crashed slots are ignored,
    as {!Mis_graph.Check.is_surviving_mis} ignores crashed nodes. One
    pass over the slots and their adjacency arrays, O(capacity + edges);
    allocates nothing.
    @raise Invalid_argument unless [Array.length set = capacity g]. *)
