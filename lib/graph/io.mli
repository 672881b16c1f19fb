(** Plain-text graph interchange: whitespace edge lists (one ["u v"] pair
    per line, preceded by a ["n <count>"] header) and Graphviz DOT export
    for visual inspection of MIS results. *)

val write_edge_list : Graph.t -> path:string -> unit

val read_edge_list : path:string -> (Graph.t, string) result
(** Accepts blank lines and [#]-prefixed comments. *)

val to_dot : ?highlight:bool array -> ?name:string -> Graph.t -> string
(** Undirected DOT graph; [highlight] fills the marked nodes (e.g. an
    MIS). *)
