(** Planar Euclidean geometry with a sorted cell grid.

    Supports the paper's real-world topology pipeline: wireless access
    points are positioned in the plane, edges connect points within a
    maximum physical distance, and the tree is a minimum spanning tree of
    that threshold graph (Sec. IX). *)

type point = { x : float; y : float }

type edges = { w : float array; u : int array; v : int array }
(** Weighted edges as a struct of arrays: edge [k] joins [u.(k)] and
    [v.(k)] at weight [w.(k)]. *)

val iter_threshold :
  point array -> radius:float -> (float -> int -> int -> unit) -> unit
(** [iter_threshold points ~radius f] calls [f d i j] once for every pair
    [i < j] at Euclidean distance [d <= radius]. Points are grouped in
    cells of side [radius] (from the bounding box's lower-left corner),
    and the order is canonical: [i] descending, then the neighbour cells
    from offset [(1, 1)] down to [(-1, -1)] (x offset outer), then each
    cell's points [j] ascending. The cell size fixes the order, so the
    same pairs scanned at another radius come in another order. Cost is
    proportional to the candidate pairs plus [n log n]; nothing is
    allocated per pair but the boxed [d].
    @raise Invalid_argument if [radius <= 0]. *)

val threshold_edges : point array -> radius:float -> edges
(** The pairs of {!iter_threshold}, in its order, sized by a counting
    scan and filled by a second one.
    @raise Invalid_argument if [radius <= 0]. *)
