(** Compiled topology shared by the execution backends.

    A [Csr.t] holds what both the message-passing engine
    ({!Runtime.Engine}) and the data-parallel sweeps ({!Kernel}) read:
    the active-slot maps and the CSR neighbor index over slots, in the
    view's adjacency iteration order. Each backend compiles through here,
    so they agree on slot numbering and edge order — the starting point
    of the bit-identity contract between them. What only one backend
    reads is built by that backend: the engine's neighbor id arrays,
    node contexts and message buffers, the kernel's slot-to-id array and
    sweep scratch. *)

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

val view : t -> Mis_graph.View.t
val deg : t -> int -> int
(** [deg t s] is the number of neighbors of slot [s]. *)
