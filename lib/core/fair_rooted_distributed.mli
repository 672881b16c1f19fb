(** FairRooted as a message-passing program (paper Sec. IV) for the
    {!Mis_sim} runtime, including a distributed Cole–Vishkin stage.

    Round schedule (T = the agreed Cole–Vishkin iteration count derived
    from the id bound, here n):

    - round 0: broadcast the random tag bit;
    - round 1: stage-1 decision (tag 0, parent tag 1); announce I;
    - round 2: coverage; announce participation in stage 2;
    - round 3: register the residual forest; kept nodes broadcast their
      initial color (their id);
    - T rounds of bit reduction; 3x2 rounds of shift-down color
      elimination; 3 rounds of per-color-class MIS joining;
    - final round: output.

    With identity ids this flips exactly the same coins and applies
    exactly the same local rules as {!Fair_rooted.run}, so outputs are
    identical for every seed (asserted in the tests). *)

type state

val run :
  Mis_graph.Rooted.t -> Rand_plan.t -> Mis_sim.Runtime.outcome
(** Execute on the underlying forest with identity ids and
    [schedule = Cole_vishkin.iterations ~id_bound:n]. *)
