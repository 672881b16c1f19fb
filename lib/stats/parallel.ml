(* Chunked parallel experiment engine over a persistent pool of OCaml 5
   domains.

   Task indices are grouped into fixed-size chunks; workers claim chunks
   dynamically off an atomic counter (work stealing by another name), run
   each chunk into a private accumulator, and park the result in a slot
   array indexed by chunk. The final reduction walks the slots in chunk
   order, so the merged value depends only on the chunk size — never on
   the domain count or on which domain happened to run which chunk.

   Worker domains are spawned lazily on the first call that needs them
   and then reused: a job is published under a mutex as (generation,
   closure, seat count) and idle workers park on a condition variable —
   never in a hot select/spin loop, which would turn every minor GC into
   a cross-domain rendezvous (measured at ~2x on this code base; see
   DESIGN "Worker pool"). Domain.spawn costs ~3ms a pop, so on short
   experiment workloads the respawn tax used to dominate the parallel
   win entirely. *)

let env_pos_int name =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> Some d
    | _ -> None)

let env_domains () = env_pos_int "FAIRMIS_DOMAINS"

let default_domains () =
  match env_domains () with
  | Some d -> d
  | None -> max 1 (Domain.recommended_domain_count ())

(* Active domains beyond the hardware are pure loss in OCaml 5: every
   minor collection is a stop-the-world rendezvous across all running
   domains, so oversubscription slows the whole program down (the old
   spawn-per-call engine measured ~6x on a 1-core box at 4 domains).
   The requested domain count is therefore clamped to this cap before
   any worker runs. FAIRMIS_POOL_CAP overrides the hardware default —
   tests raise it to exercise real cross-domain races on small boxes. *)
let pool_cap () =
  match env_pos_int "FAIRMIS_POOL_CAP" with
  | Some c -> c
  | None -> max 1 (Domain.recommended_domain_count ())

(* At most 64 chunks by default. The bound is a function of the task
   count alone — it must not depend on the domain count, or the default
   reduction order (and with it any non-associative merge) would change
   with the hardware. *)
let default_chunk ~tasks = max 1 ((tasks + 63) / 64)

(* Re-entrancy flag: set while this domain is executing chunks. A nested
   [map_reduce] from inside a task must not touch the pool (the outer
   job already owns it — trying to publish a second job would deadlock
   on the job mutex), so it runs serially on the calling domain. The
   chunked serial path keeps the reduction order, hence the output,
   identical to what a pool run would produce. *)
let region_key = Domain.DLS.new_key (fun () -> ref false)

let in_region () = !(Domain.DLS.get region_key)

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)

type pool = {
  m : Mutex.t;
  work_cond : Condition.t;  (* workers park here between jobs *)
  done_cond : Condition.t;  (* coordinator parks here at the barrier *)
  mutable workers : unit Domain.t list;
  mutable size : int;  (* length of [workers] *)
  mutable gen : int;  (* job generation; bumped per published job *)
  mutable job : (unit -> unit) option;  (* current job *)
  mutable seats : int;  (* seats still open on the current job *)
  mutable active : int;  (* workers currently inside the current job *)
  mutable quit : bool;  (* shutdown requested *)
}

let pool =
  {
    m = Mutex.create ();
    work_cond = Condition.create ();
    done_cond = Condition.create ();
    workers = [];
    size = 0;
    gen = 0;
    job = None;
    seats = 0;
    active = 0;
    quit = false;
  }

(* Serializes whole parallel sections: only one coordinator may own the
   pool at a time, so overlapping [map_reduce] calls from different
   domains queue up rather than interleave (nested calls from inside a
   task never get here — see [region_key]). *)
let job_mutex = Mutex.create ()

let spawned_total = Atomic.make 0 (* domains ever spawned by the pool *)
let jobs_total = Atomic.make 0 (* jobs ever published to workers *)

let pool_size () =
  Mutex.lock pool.m;
  let s = pool.size in
  Mutex.unlock pool.m;
  s

let pool_spawned_total () = Atomic.get spawned_total
let pool_jobs_total () = Atomic.get jobs_total

(* Body of a pooled worker. Parks on [work_cond]; wakes to claim a seat
   on a freshly published job (a generation it has not seen), runs it,
   reports the barrier, parks again. The job closure contains its own
   exception shield; the catch here only guards pool bookkeeping. *)
let worker_loop p =
  let last_gen = ref 0 in
  (* gen starts at 0 and is bumped before publication, so a fresh worker
     can never mistake an old job for a new one *)
  Mutex.lock p.m;
  let running = ref true in
  while !running do
    if p.quit then running := false
    else if p.job <> None && p.seats > 0 && p.gen <> !last_gen then begin
      let gen = p.gen in
      let work = match p.job with Some w -> w | None -> assert false in
      p.seats <- p.seats - 1;
      p.active <- p.active + 1;
      Mutex.unlock p.m;
      (try work () with _ -> ());
      Mutex.lock p.m;
      p.active <- p.active - 1;
      if p.active = 0 then Condition.broadcast p.done_cond;
      last_gen := gen
    end
    else Condition.wait p.work_cond p.m
  done;
  Mutex.unlock p.m

let shutdown () =
  if in_region () then
    invalid_arg "Parallel.shutdown: called from inside map_reduce";
  Mutex.lock job_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock job_mutex)
    (fun () ->
      let p = pool in
      Mutex.lock p.m;
      p.quit <- true;
      Condition.broadcast p.work_cond;
      let ws = p.workers in
      p.workers <- [];
      p.size <- 0;
      Mutex.unlock p.m;
      (* job_mutex is held, so no job is in flight: every worker is
         parked (or about to park) and sees [quit] promptly. *)
      List.iter Domain.join ws;
      Mutex.lock p.m;
      p.quit <- false;
      (* the next map_reduce that wants workers respawns from zero *)
      Mutex.unlock p.m)

let at_exit_registered = Atomic.make false

let register_at_exit () =
  if Atomic.compare_and_set at_exit_registered false true then
    at_exit (fun () -> try shutdown () with _ -> ())

(* Run [work] on the coordinator plus up to [workers] pooled domains.
   Grows the pool on demand (it never shrinks until [shutdown]); if
   Domain.spawn fails (runtime domain limit), degrades to however many
   workers exist. Returns the number of participating workers. Caller
   must NOT hold any pool lock. *)
let run_job ~workers:want work =
  Mutex.lock job_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock job_mutex)
    (fun () ->
      let p = pool in
      Mutex.lock p.m;
      (try
         while p.size < want do
           let d = Domain.spawn (fun () -> worker_loop p) in
           p.workers <- d :: p.workers;
           p.size <- p.size + 1;
           Atomic.incr spawned_total
         done
       with _ -> ());
      if p.size > 0 then register_at_exit ();
      let avail = min want p.size in
      p.gen <- p.gen + 1;
      p.job <- Some work;
      p.seats <- avail;
      p.active <- 0;
      Atomic.incr jobs_total;
      if avail > 0 then Condition.broadcast p.work_cond;
      Mutex.unlock p.m;
      Fun.protect
        ~finally:(fun () ->
          (* The barrier. Cancel unclaimed seats (a slow-to-wake worker
             must not join a job whose coordinator already left), then
             wait for every claimed seat to drain. *)
          Mutex.lock p.m;
          p.seats <- 0;
          while p.active > 0 do
            Condition.wait p.done_cond p.m
          done;
          p.job <- None;
          Mutex.unlock p.m)
        work;
      avail)

(* ------------------------------------------------------------------ *)
(* map_reduce                                                          *)

let map_reduce ?domains ?chunk ?obs ~tasks ~init ~merge task =
  if tasks < 0 then invalid_arg "Parallel.map_reduce: tasks";
  let requested =
    match domains with
    | Some d -> if d < 1 then invalid_arg "Parallel.map_reduce: domains" else d
    | None -> default_domains ()
  in
  let chunk =
    match chunk with
    | Some c -> if c < 1 then invalid_arg "Parallel.map_reduce: chunk" else c
    | None -> default_chunk ~tasks
  in
  if tasks = 0 then init () (* no chunks, no job, no worker woken *)
  else begin
    let nchunks = (tasks + chunk - 1) / chunk in
    (* Effective parallelism: what was asked, bounded by the number of
       chunks (an idle seat is a woken domain for nothing) and by the
       hardware cap; serialized outright inside a nested call. *)
    let eff =
      if in_region () then 1 else min requested (min nchunks (pool_cap ()))
    in
    let slots = Array.make nchunks None in
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    (* Lowest-chunk failure wins, deterministically, via CAS min-by-chunk:
       which exception the caller sees depends on the tasks alone. *)
    let error = Atomic.make None in
    let rec record_error c e bt =
      let cur = Atomic.get error in
      match cur with
      | Some (bc, _, _) when bc <= c -> ()
      | _ ->
        if not (Atomic.compare_and_set error cur (Some (c, e, bt))) then
          record_error c e bt
    in
    let run_chunks () =
      (* Claim and run chunks until the queue is drained or some domain
         has failed. *)
      let region = Domain.DLS.get region_key in
      let saved_region = !region in
      region := true;
      Fun.protect
        ~finally:(fun () -> region := saved_region)
        (fun () ->
          let continue = ref true in
          while !continue && not (Atomic.get failed) do
            let c = Atomic.fetch_and_add next 1 in
            if c >= nchunks then continue := false
            else begin
              match
                (* One span per claimed chunk: with FAIRMIS_PROF_SPANS=1
                   the retained records give a per-domain chunk timeline
                   (the Perfetto execution view); otherwise this is the
                   usual env-gated no-op. *)
                Mis_obs.Prof.gspan "parallel.chunk" @@ fun () ->
                let acc = init () in
                let lo = c * chunk and hi = min tasks ((c + 1) * chunk) in
                for i = lo to hi - 1 do
                  task acc i
                done;
                acc
              with
              | acc -> slots.(c) <- Some acc
              | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                Atomic.set failed true;
                record_error c e bt;
                continue := false
            end
          done)
    in
    let used_workers =
      if eff <= 1 then begin
        (* Serial fast path: no pool, no locks, no worker woken. *)
        run_chunks ();
        0
      end
      else run_job ~workers:(eff - 1) run_chunks
    in
    (match obs with
    | None -> ()
    | Some reg ->
      (* The engine's own scheduling counters, recorded once per run on
         the coordinator after the barrier. *)
      Mis_obs.Metrics.incr ~by:tasks
        (Mis_obs.Metrics.counter reg "parallel.tasks");
      Mis_obs.Metrics.incr ~by:nchunks
        (Mis_obs.Metrics.counter reg "parallel.chunks");
      Mis_obs.Metrics.incr ~by:eff
        (Mis_obs.Metrics.counter reg "parallel.domains");
      Mis_obs.Metrics.incr ~by:used_workers
        (Mis_obs.Metrics.counter reg "parallel.pool.workers"));
    (* Re-raise the failure from the lowest-numbered chunk — determinism
       extends to which exception the caller sees. *)
    (match Atomic.get error with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    (* Ordered reduction: slots in chunk order, left to right. *)
    let acc = ref None in
    Array.iter
      (fun slot ->
        match slot with
        | None -> assert false (* no failure ⇒ every chunk completed *)
        | Some a ->
          acc := Some (match !acc with None -> a | Some prev -> merge prev a))
      slots;
    match !acc with Some a -> a | None -> init ()
  end
