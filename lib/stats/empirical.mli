(** Empirical per-node join statistics over repeated runs of an MIS
    algorithm — the measurement core of the paper's evaluation (Sec. IX):
    join frequencies, the inequality factor, and the CDF of Figure 4. *)

type t

val create : nodes:int array -> trials:int -> joins:int array -> t
(** [nodes] are the node indices under study; [joins.(u)] counts the runs
    in which node [u] joined, out of [trials] runs. The system builds
    through {!of_fairness}; tests state join counts directly here. *)

val of_fairness : ?mask:bool array -> Mis_obs.Fairness.t -> t
(** The accumulator's join counts over its runs, restricted to [mask]
    (default: every node).
    @raise Invalid_argument when the accumulator holds no run. *)

val trials : t -> int
val node_count : t -> int
val frequency : t -> int -> float
val frequencies : t -> float array
(** Per studied node, in [nodes] order. *)

val min_frequency : t -> float

val inequality_factor : t -> float
(** max/min of the empirical join frequencies; [infinity] when some node
    never joined (the paper defines division by zero as infinity). *)

val cdf : t -> (float * float) array
(** Points [(x, F(x))]: the fraction [F(x)] of studied nodes whose join
    frequency is [<= x], one point per distinct frequency, increasing. *)

val quantile : t -> float -> float
(** [quantile t q] for [0 <= q <= 1]: the empirical [q]-quantile of the
    per-node join frequencies. *)

type summary = {
  nodes : int;
  trials : int;
  min_freq : float;
  max_freq : float;
  mean_freq : float;
  factor : float;
}

val summarize : t -> summary
