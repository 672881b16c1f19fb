(** The message engine's compiled topology.

    A [Csr.t] holds what {!Runtime.Engine} builds on: the active-slot
    maps and the CSR neighbor index over slots, slots numbered in node
    index order and each slot's neighbors in the view's adjacency
    iteration order. The engine's FIFO delivery order follows this
    numbering. What only the engine reads (neighbor id arrays, node
    contexts, message buffers) is built there. {!Kernel} numbers its own
    slots, since none of its results depends on their order, and shares
    only {!check_ids}. *)

type t = {
  c_view : Mis_graph.View.t;
  n : int;  (** Nodes in the underlying graph (including inactive). *)
  ids : int array;  (** Node index -> program-visible identifier. *)
  active : int array;  (** Slot -> node index, in increasing order. *)
  slot : int array;  (** Node index -> slot, or [-1] when inactive. *)
  adj_off : int array;
      (** Slot [s]'s neighbors occupy entries [adj_off.(s) ..
          adj_off.(s+1) - 1] of [adj_slot]. *)
  adj_slot : int array;  (** Neighbor slots, view order. *)
}

val compile : ?ids:int array -> Mis_graph.View.t -> t
(** Compile [view] and the optional index-to-id map (default the
    identity).

    @raise Invalid_argument ["Runtime.run: ids length"] when [ids] does
    not have one entry per node, ["Runtime.run: duplicate ids"] when it
    gives two active nodes one id. *)

val check_ids : n:int -> int array -> int array -> unit
(** [check_ids ~n ids active] checks an index-to-id map against the
    active node indices [active] (in any order).

    @raise Invalid_argument ["Runtime.run: ids length"] when [ids] does
    not have [n] entries, then ["Runtime.run: duplicate ids"] when it
    gives two nodes of [active] one id. *)

val view : t -> Mis_graph.View.t
val deg : t -> int -> int
(** [deg t s] is the number of neighbors of slot [s]. *)
