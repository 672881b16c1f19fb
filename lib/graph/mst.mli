(** Minimum spanning trees/forests.

    The paper's "real-world" topologies are built by thresholding WAP
    distances and taking an MST of the resulting graph (Sec. IX); that
    pipeline uses {!prim}, whose tie order shapes the trees. *)

val prim : n:int -> Geometry.edges -> (int * int) list
(** Prim's algorithm with first-in-first-out tie-breaking among
    equal-weight edges. On data with exactly co-located points (zero-length
    edges, as produced by GPS-snapped WAP traces) this attaches every
    co-located point directly to the first one reached, yielding the
    high-degree hub structure observed in the paper's real-world trees —
    whereas Kruskal's arbitrary tie order scrambles it.

    Roots are tried in ascending order. A visited node pushes its edges in
    array order, so the edge array's order fixes the ties: the tree
    depends on it, not only on the edge set. The adjacency is a CSR over
    edge ids, [2m + n] ints. *)
