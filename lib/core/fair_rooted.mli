(** FairRooted (paper Sec. IV): the fair MIS algorithm for rooted trees
    and forests.

    Stage 1: every node tags itself with a uniform bit; the root also tags
    a virtual parent. A node with tag 0 whose parent has tag 1 joins I —
    probability exactly 1/4 per node. Stage 2: covered nodes terminate;
    the uncovered remainder (a rooted forest) runs the Cole–Vishkin
    O(log* n) MIS. Theorem 3: correct MIS, inequality factor <= 4. *)

type trace = {
  stage1 : bool array;  (** I after stage 1. *)
  rounds : int;  (** 2 + Cole–Vishkin rounds. *)
}

val run : ?ids:int array -> Mis_graph.Rooted.t -> Rand_plan.t -> bool array
(** [ids] seeds the deterministic stage-2 coloring (default: node index). *)

val run_traced :
  ?ids:int array -> Mis_graph.Rooted.t -> Rand_plan.t -> bool array * trace
(** {!run} with its stage-1 set and round count, which only tests read:
    Theorem 3's stage-1 bound and the O(log* n) rounds. *)
