(** Cole–Vishkin deterministic coin tossing [Cole & Vishkin 1986]: 3-color
    a rooted forest in O(log* n) rounds, then derive an MIS by processing
    the three color classes. This is the generic rooted-tree MIS that
    FairRooted (paper Sec. IV) runs on the nodes left uncovered after its
    fair first stage. *)

val iterations : id_bound:int -> int
(** Number of bit-reduction iterations that provably reduce any proper
    coloring with values in [\[0, id_bound)] to values in [\[0, 6)]: the
    fixed schedule a distributed execution agrees on from knowledge of the
    id range (O(log* id_bound)). *)

val three_color :
  ?keep:bool array ->
  ?schedule:int ->
  ids:int array ->
  Mis_graph.Rooted.t ->
  int array * int
(** [(colors, rounds)]: a proper 3-coloring (values 0..2) of the kept nodes
    of the forest; dropped nodes get color [-1]. [ids] must be distinct
    non-negative initial colors (typically node ids). [rounds] counts the
    communication rounds the distributed algorithm would use: one per
    bit-reduction iteration plus two per color-elimination phase.

    [schedule] fixes the number of reduction iterations (as a distributed
    execution must); by default iteration stops as soon as all colors are
    below 6. Extra iterations preserve properness and the < 6 bound, so
    any [schedule >= iterations ~id_bound] is correct. Only {!mis} uses
    it here; it is exposed so tests can check the coloring {!mis} relies
    on is proper. *)

val mis :
  ?keep:bool array ->
  ?schedule:int ->
  ids:int array ->
  Mis_graph.Rooted.t ->
  bool array * int
(** [three_color] followed by [mis_from_colors]; returns the MIS of the
    kept subforest and the total round count. *)

(** Building blocks shared with the distributed implementation
    ({!Fair_rooted_distributed}); exposed so both engines provably apply
    identical local rules. *)

val virtual_parent_color : int -> int
(** The color a root compares against: any value differing from its own. *)

val reduce_step : own:int -> parent:int -> int
(** One bit-reduction step: [2i + bit_i(own)] for the lowest bit [i] where
    [own] and [parent] differ. *)

val shift_root_color : int -> int
(** The color a root adopts during a shift-down round. *)

val recolor : own_old:int -> parent_new:int -> int
(** The fresh color in [{0,1,2}] chosen by a node whose shifted color is
    being eliminated. *)
