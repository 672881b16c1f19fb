(** Per-node knowledge in the synchronous message-passing model (paper
    Sec. III): a node knows its own ID, its neighbors' IDs, and [n]. It has
    no other a-priori topology information. *)

type t = {
  index : int;  (** Array slot of the node, [0 .. n-1]. Used only by the
                    runtime; algorithms must not treat it as knowledge. *)
  id : int;  (** Unique identifier. *)
  n : int;  (** Number of nodes in the whole network. *)
  neighbor_ids : int array;  (** IDs of the (active) neighbors. *)
  mutable rng : Mis_util.Splitmix.t;
      (** Node-local random stream. Mutable so the compiled engine can
          re-seed a cached context array between runs instead of
          allocating [n] fresh records per execution. *)
}
