(** Special-purpose graphs from the paper's theory sections. *)

val clique : int -> Mis_graph.Graph.t

val cone : k:int -> Mis_graph.Graph.t
(** The lower-bound graph of Sec. VIII: nodes [u_0 .. u_2k] where
    [u_1 .. u_2k] form a clique and [u_0] is adjacent to [u_1 .. u_k].
    Every MIS algorithm has inequality factor Ω(n) on it (Theorem 19).
    Node 0 is [u_0]. Requires [k >= 1]. *)

