(** Minimum spanning trees/forests.

    The paper's "real-world" topologies are built by thresholding WAP
    distances and taking an MST of the resulting graph (Sec. IX); that
    pipeline uses {!prim}, whose tie order shapes the trees. *)

val kruskal : n:int -> (float * int * int) array -> (int * int) list
(** [kruskal ~n weighted_edges] returns the edges of a minimum spanning
    forest. Input triples are [(weight, u, v)]; the input array is sorted
    in place. *)

val spanning_forest_weight :
  n:int -> (float * int * int) array -> float
(** Total weight of the minimum spanning forest (brute-force reference is
    in the tests). *)

val prim : n:int -> (float * int * int) array -> (int * int) list
(** Prim's algorithm with first-in-first-out tie-breaking among
    equal-weight edges. On data with exactly co-located points (zero-length
    edges, as produced by GPS-snapped WAP traces) this attaches every
    co-located point directly to the first one reached, yielding the
    high-degree hub structure observed in the paper's real-world trees —
    whereas Kruskal's arbitrary tie order scrambles it. Same total weight
    as {!kruskal} up to tie-breaking. *)
