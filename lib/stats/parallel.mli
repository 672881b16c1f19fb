(** Chunked parallel experiment engine on a persistent pool of OCaml 5
    domains (no external dependency) — the machinery behind every Monte
    Carlo number in the evaluation.

    Task indices [0 .. tasks-1] are grouped into fixed-size chunks.
    Workers (the calling domain plus pooled ones) claim chunks
    dynamically off an atomic counter; each chunk runs in index order
    into a private accumulator from [init ()], and the finished
    accumulator is parked in a slot array indexed by the chunk number.
    After the barrier, the slots are reduced {e in chunk order}, left to
    right.

    {2 The worker pool}

    Worker domains are spawned lazily on the first call that needs them
    and reused by every later call — [Domain.spawn] costs milliseconds,
    which used to dominate short experiment workloads. Between jobs the
    workers park on a condition variable (never a hot spin — an active
    idle domain turns every minor GC into a cross-domain rendezvous).
    The pool grows on demand up to the largest request seen and never
    shrinks until {!shutdown}.

    The {e effective} parallelism of a call is
    [min domains nchunks (pool cap)], where the pool cap is
    [FAIRMIS_POOL_CAP] if set, otherwise
    [Domain.recommended_domain_count ()] — running more active domains
    than the hardware has cores is pure loss under OCaml 5's
    stop-the-world minor GC. When the effective parallelism is 1 the
    call runs serially on the caller: no lock is taken and no worker is
    woken (in particular [tasks = 0] and single-chunk runs never touch
    the pool). A nested [map_reduce] from inside a running task is
    serialized the same way; overlapping calls from {e other} domains
    queue on an internal job mutex, one parallel section at a time.

    {2 Determinism contract}

    - The sequence of [task] applications inside a chunk, and the order
      of chunk accumulators in the final reduction, depend only on
      [tasks] and [chunk] — {e never} on [domains], on the pool state
      (cold spawn vs warm reuse), or on scheduling. The result is
      bit-identical for any domain count, including 1.
    - The default chunk size is a function of [tasks] alone, so the
      default-configuration result is also hardware-independent.
    - Changing [chunk] regroups tasks into different accumulators; the
      result is unchanged whenever [merge] is associative with [init ()]
      as identity (true of every counting accumulator in this repo).
    - Tasks must derive randomness from their own index (the Monte Carlo
      harness seeds trial [i] with [base_seed + i]), never from shared
      mutable state.

    {2 Exception safety}

    A raising [task] (or [init]) marks the run failed: other domains stop
    claiming new chunks, the barrier completes, and only then is the
    exception re-raised. When several chunks raise concurrently, the
    exception from the lowest-numbered chunk is the one re-raised
    (selected by a compare-and-swap min over chunk indices). A raising
    task leaves the pool parked and fully reusable — no domain is leaked
    and no respawn is needed. *)

val default_domains : unit -> int
(** The [FAIRMIS_DOMAINS] environment variable when set to an integer
    [>= 1] (re-read on each call), otherwise
    [max 1 (Domain.recommended_domain_count ())]. This is the {e
    requested} parallelism and is deliberately uncapped — the engine
    clamps the effective parallelism per call (chunk count, pool cap),
    so the same setting behaves sensibly on any box. The engine reads
    it when [domains] is omitted; exposed so tests can pin how it reads
    the environment. *)

val default_chunk : tasks:int -> int
(** [max 1 (ceil (tasks / 64))] — at most 64 chunks, enough slack for
    dynamic load balancing while keeping per-chunk scheduling overhead
    (one atomic fetch-and-add) negligible. *)

val map_reduce :
  ?domains:int ->
  ?chunk:int ->
  ?obs:Mis_obs.Metrics.t ->
  tasks:int ->
  init:(unit -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  ('acc -> int -> unit) ->
  'acc
(** [map_reduce ~tasks ~init ~merge task] runs [task acc i] for every
    [i] in [0 .. tasks-1] as described above on the worker pool
    and returns the ordered reduction of the chunk accumulators ([init ()]
    directly when [tasks = 0]).

    [domains] defaults to {!default_domains}; [chunk] to
    {!default_chunk}. Both must be [>= 1].

    [obs]: after the barrier, the coordinator adds the engine's own
    scheduling counters to this registry: [parallel.tasks],
    [parallel.chunks], [parallel.domains] (the effective parallelism of
    the call) and [parallel.pool.workers] (pooled workers that held a
    seat on the job; 0 on the serial fast path). Tasks never see it:
    per-trial state belongs in the chunk accumulators (e.g. the
    {!Mis_obs.Fairness.t} of {!Montecarlo.run}), which the engine
    merges. *)

(** {2 Pool lifecycle & introspection} *)

val shutdown : unit -> unit
(** Join every pooled worker domain and reset the pool to empty.
    Idempotent; safe to call with no pool. The next [map_reduce] that
    needs workers respawns them transparently, so this is an
    optimization point (quiesce before fork/exec, tests, program exit —
    the pool also registers an [at_exit] for the last case), not a
    one-way door. Raises [Invalid_argument] if called from inside a
    running task. *)

val pool_size : unit -> int
(** Worker domains currently alive in the pool (0 before first use and
    after {!shutdown}; the coordinator is not counted). *)

val pool_spawned_total : unit -> int
(** Cumulative count of worker domains ever spawned by the pool. Flat
    across warm calls; grows only when the pool grows or respawns after
    {!shutdown} — the leak/churn observable used by the lifecycle
    tests. *)

val pool_jobs_total : unit -> int
(** Cumulative count of jobs published to pooled workers. Serial
    fast-path calls (effective parallelism 1, empty/single-chunk inputs,
    nested calls) do not count — pinning that they never wake a
    worker. *)

val pool_cap : unit -> int
(** The active-domain clamp applied to every call: [FAIRMIS_POOL_CAP]
    when set to an integer [>= 1] (re-read on each call), otherwise
    [max 1 (Domain.recommended_domain_count ())]. *)
