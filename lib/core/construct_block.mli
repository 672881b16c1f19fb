(** Construct_Block — the Linial–Saks low-diameter decomposition routine
    (paper Sec. VI-A), augmented as in the paper to piggyback a payload on
    the leader broadcast.

    Every node draws a radius [r_v] from the truncated geometric
    distribution π(p, γ) and floods its id (plus payload) to distance
    [r_v]. A node's leader is the largest id it heard; it joins the
    leader's {e block} iff its distance to the leader is strictly less
    than the leader's radius, and is a {e boundary node} otherwise.
    Lemma 12: a node joins some block with probability >= p(1-p^γ)^n, and
    all connected non-boundary nodes share one leader.

    The payload is a small integer shipped with the flood. With
    [flip_per_hop = true] it is complemented at every hop — this is how
    FairBipart transports the leader's random bit so that a node at odd
    distance reads the negation (paper Fig. 3). ColorMIS ships a color
    unchanged instead. *)

type config = {
  gamma : int;  (** Maximum radius (Θ(log n)). *)
  radius_of : int -> int;  (** Sampled radius per node, in [0 .. gamma]. *)
  payload_of : int -> int;  (** Payload per node (bit or color). *)
  flip_per_hop : bool;  (** Complement a {0,1} payload at each hop. *)
}

type result = {
  leader : int array;
      (** Largest id heard by each active node ([-1] for inactive nodes;
          active nodes always hear at least themselves). *)
  in_block : bool array;
      (** Joined the leader's block (non-boundary). *)
  payload : int array;
      (** Payload as observed at this node for its leader (after any
          per-hop flips along a shortest path); [-1] when inactive. *)
  rounds : int;  (** γ·(γ+1): γ superrounds of γ+1-entry leader tables. *)
}

val run : Mis_graph.View.t -> config -> result
(** One bounded BFS per source (expected ball size is O(1) for p = 1/2).
    Outcome-identical to the faithful bounded-message variant the paper
    adopts — γ superrounds of whole leader tables — which the tests keep
    as its oracle, and to {!Block_program} on the simulator. *)
