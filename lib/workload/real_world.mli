(** Real-world-style trees: the paper's Sec. IX pipeline applied to the
    synthetic WAP point clouds of {!Geo}.

    Pipeline (verbatim from the paper): impose a maximum physical distance
    that may be represented by an edge, form the threshold graph, and take
    a minimum spanning tree. We then restrict to the largest component and
    prune random leaves down to the paper's exact node counts. *)

val tree_of_points :
  Mis_util.Splitmix.t ->
  Mis_graph.Geometry.point array ->
  radius:float ->
  target:int ->
  Mis_graph.Graph.t
(** MST tree of the largest threshold-graph component, leaf-pruned to
    exactly [target] nodes. The radius is grown geometrically (factor 1.3)
    until the largest component reaches [target] nodes, mirroring the
    paper's choice of "a maximum physical distance" that keeps the network
    connected; 10 bisection probes then find the smallest sufficient
    radius. Each probe is one DSU pass: grow steps run it inside
    {!Mis_graph.Geometry.iter_threshold} at their radius, with no edge
    array, and bisection filters one edge array from the first passing
    radius. Only the final radius gets an MST ({!tree_at}). The NYC- and
    Dartmouth-like builds below call it; the tests hold it to a
    per-probe search over {!tree_at}, its oracle.
    @raise Failure if 60 growth steps cannot reach [target]. *)

val tree_at :
  Mis_util.Splitmix.t -> Mis_graph.Geometry.point array -> radius:float ->
  target:int -> Mis_graph.Graph.t
(** The build at one radius: Prim MST of the threshold graph, its largest
    component, leaf-pruned to [target] (at most that component's size).
    The step both {!tree_of_points} and its per-probe test oracle end
    with. *)

val dartmouth_like : seed:int -> Mis_graph.Graph.t
(** 178-node tree (paper's Dartmouth trace size) from a campus-like cloud
    of 700 points. *)

val nyc_like : seed:int -> Mis_graph.Graph.t
(** 17,834-node tree (paper's NYC trace size) from a city-like cloud. *)

val nyc_like_small : seed:int -> Mis_graph.Graph.t
(** 2,048-node variant of the city tree for quick benchmarking runs. *)
