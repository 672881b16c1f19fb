(** The randomness plan: every coin any algorithm flips is addressed by a
    (seed, stage, entity, ...) key and derived through {!Mis_util.Splitmix}.

    This gives three properties the whole repository relies on:
    - runs are reproducible from a single integer seed;
    - the fast engine (kernel sweeps or array loops) and the message
      program of the same algorithm flip {e identical} coins, so their
      outputs can be compared for exact equality in tests;
    - stages of a composite algorithm (e.g. FairTree's four stages) use
      independent randomness, as the paper's analysis assumes.

    Each draw is a fixed-arity derivation: the same value as the list key
    path [Splitmix.stream base [stage; tag; ...]] (tags 1-6 below, in
    [val] order) followed by the matching {!Mis_util.Splitmix} draw, but
    computed over unboxed [int64]s. [node_bit], [edge_bit], [node_value],
    [node_int] and [node_radius] allocate nothing; [node_stream]
    allocates only the stream it returns. [node_bits], [edge_bits] and
    [node_values] allocate their closure once and nothing per draw. *)

type t

val make : int -> t

(** Stage tags. Each (algorithm, stage) pair gets a distinct namespace. *)
module Stage : sig
  val fair_rooted_tag : int
  val fair_rooted_virtual : int
  val fair_tree_cut : int
  val fair_tree_s1 : int
  val fair_tree_s2 : int
  val fair_tree_s3 : int
  val fair_tree_luby : int
  val fair_bipart_radius : int
  val fair_bipart_bit : int
  val fair_bipart_luby : int
  val color_mis_radius : int
  val color_mis_choice : int
  val color_mis_luby : int
  val coloring_greedy : int
  val coloring_layered : int
  val luby_main : int
  val centralized : int
end

val node_bit : t -> stage:int -> node:int -> bool
(** One fair coin per (stage, node). *)

val edge_bit : t -> stage:int -> u:int -> v:int -> bool
(** One fair coin per (stage, edge); symmetric in [u]/[v] — this is the
    paper's "cooperate with each neighbor" shared edge coin. *)

val node_value : t -> stage:int -> round:int -> node:int -> int
(** A fresh uniform 62-bit value per (stage, round, node): Luby's
    per-round random priorities. *)

val node_bits : t -> stage:int -> int -> bool
(** [node_bits t ~stage] is [fun node -> node_bit t ~stage ~node]. The
    key prefix of [stage] is folded once, when the closure is built; a
    draw then allocates nothing. *)

val edge_bits : t -> stage:int -> u:int -> v:int -> bool
(** [edge_bits t ~stage] is [fun ~u ~v -> edge_bit t ~stage ~u ~v], with
    the prefix folded once as in {!node_bits}. *)

val node_values : t -> stage:int -> round:int -> node:int -> int
(** [node_values t ~stage] is
    [fun ~round ~node -> node_value t ~stage ~round ~node], with the
    prefix folded once as in {!node_bits}. *)

val node_int : t -> stage:int -> node:int -> bound:int -> int
(** Uniform in [\[0, bound)] per (stage, node). *)

val node_radius : t -> stage:int -> node:int -> p:float -> gamma:int -> int
(** The Linial–Saks truncated-geometric broadcast radius per node. *)

val node_stream : t -> stage:int -> node:int -> Mis_util.Splitmix.t
(** A whole private stream, for components that draw an unbounded number
    of coins. *)
