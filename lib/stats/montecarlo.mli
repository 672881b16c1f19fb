(** The one seeded-trial harness behind every number in the evaluation:
    run a randomized algorithm [trials] times with per-trial seeds on the
    {!Parallel} engine and reduce the per-chunk accumulators.

    Trial [i] always uses seed [base_seed + i], independent of how trials
    are chunked over domains, and the per-chunk accumulators are merged
    in chunk order, so results are bit-reproducible at any parallelism
    level (including 1). *)

type config = {
  trials : int;  (** Number of seeded runs; trial [i] uses [base_seed + i]. *)
  base_seed : int;
  domains : int option;  (** [None] = {!Parallel.default_domains}. *)
}

val fold :
  ?obs:Mis_obs.Metrics.t ->
  config ->
  init:(unit -> 'acc) ->
  trial:('acc -> seed:int -> unit) ->
  merge:('acc -> 'acc -> 'acc) ->
  'acc
(** The generic shape: [init ()] once per chunk on the domain that claimed
    it, [trial acc ~seed] once per seed, accumulators merged in chunk
    order. [obs] receives {!Parallel.map_reduce}'s engine counters.
    @raise Invalid_argument when [config.trials < 1]. *)

val run :
  ?check:(bool array -> unit) ->
  config ->
  n:int ->
  (seed:int -> bool array) ->
  Mis_obs.Fairness.t
(** Per-node join counts of a membership-mask runner, one
    {!Mis_obs.Fairness} accumulator per chunk. [check] (e.g. MIS
    validation) runs on every single outcome — the paper requires
    correctness on all runs, so the experiments keep it on. *)

val run_buffered :
  ?check:(bool array -> unit) ->
  config ->
  n:int ->
  (unit -> seed:int -> bool array) ->
  Mis_obs.Fairness.t
(** {!run} for a runner that writes every trial into a buffer of its
    own: [make ()] is called once per domain that runs trials of this
    call, and the per-seed closure it returns runs that domain's trials
    one after another. The array a trial returns need only stay valid
    until the closure's next call, which may overwrite it: the trial's
    [check] and count are done by then. Bit-identical to {!run} over
    closures that return fresh arrays, at any domain count. *)

val empirical : Mis_graph.View.t -> Mis_obs.Fairness.t -> Empirical.t
(** A {!run} accumulator over the view's active nodes.
    @raise Invalid_argument when the accumulator holds no run. *)

val estimate :
  ?check:(bool array -> unit) ->
  config ->
  Mis_graph.View.t ->
  (seed:int -> bool array) ->
  Empirical.t
(** [run] summarized by {!empirical}. *)

val estimate_ctx :
  ?check:(bool array -> unit) ->
  config ->
  ctx:(unit -> 'ctx) ->
  Mis_graph.View.t ->
  ('ctx -> seed:int -> bool array) ->
  Empirical.t
(** {!estimate} with a per-chunk context: [ctx ()] is evaluated once per
    chunk on the domain that claimed it and passed to every trial of that
    chunk. Merges ignore the context, so the result is bit-identical to
    {!estimate} at any domain count. *)
