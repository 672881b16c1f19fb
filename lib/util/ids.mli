(** Unique node identifier assignment.

    The model (paper Sec. III) assumes unique IDs. Most of the randomized
    algorithms are ID-oblivious, so the default assignment is the node
    index; the deterministic-algorithm fairness experiment (paper Sec. II
    remark) draws IDs uniformly from a polynomial range instead. *)

val identity : int -> int array
(** [identity n] assigns id [i] to node [i]: the default ids the engines
    and the kernel assume, pinned by a test. *)

val random_distinct : Splitmix.t -> n:int -> int array
(** [random_distinct rng ~n] draws [n] distinct ids uniformly from
    [0 .. n^3)] (rejection on collisions), modelling the random-ID
    preprocessing step. *)

val random_permutation : Splitmix.t -> n:int -> int array
(** A uniformly random permutation of [0 .. n-1] (Fisher–Yates). *)

val ceil_log2 : int -> int
(** Smallest [k >= 0] with [2^k >= n]: the bits of an id among [n], and
    the log factor of the round budgets. Allocates nothing. *)
