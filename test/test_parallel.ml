(* The parallel experiment engine's determinism contract, exception
   safety, engine counters and worker pool (Mis_stats.Parallel).

   The engine's promise: output depends only on (tasks, chunk), never on
   the domain count or scheduling. The properties here drive it across
   domains ∈ {1, 2, 3, 8} and arbitrary chunk sizes, with an
   order-sensitive accumulator (list concatenation), so any reduction
   reordering — not just miscounting — fails the suite. *)

module Parallel = Mis_stats.Parallel
module Metrics = Mis_obs.Metrics

(* Ordered collection: the merged value is the exact task-index order.
   List append is associative with [] as identity, so the result must be
   [f 0; f 1; ...] for EVERY (domains, chunk) combination. *)
let collect ?chunk ~domains ~tasks f =
  Parallel.map_reduce ~domains ?chunk ~tasks
    ~init:(fun () -> ref [])
    ~merge:(fun a b ->
      a := !a @ !b;
      a)
    (fun acc i -> acc := !acc @ [ f i ])

let test_ordered_reduction () =
  let f i = (i * 7919) lxor (i lsl 3) in
  let want = List.init 100 f in
  List.iter
    (fun domains ->
      List.iter
        (fun chunk ->
          let got = collect ~chunk ~domains ~tasks:100 f in
          Alcotest.(check (list int))
            (Printf.sprintf "order d=%d chunk=%d" domains chunk)
            want !got)
        [ 1; 3; 7; 100; 1000 ])
    [ 1; 2; 3; 8 ]

let prop_domain_count_invariance =
  Helpers.qtest ~count:60 "engine output invariant in domain count"
    QCheck.(pair (int_range 0 60) (int_range 1 17))
    (fun (tasks, chunk) ->
      let f i = (i * i) - (3 * i) in
      let reference = List.init tasks f in
      List.for_all
        (fun domains ->
          !(collect ~chunk ~domains ~tasks f) = reference)
        [ 1; 2; 3; 8 ])

let prop_chunk_size_invariance =
  (* With an associative merge and identity init, the chunking must not
     show through either. *)
  Helpers.qtest ~count:60 "engine output invariant in chunk size"
    QCheck.(pair (int_range 0 60) (int_range 1 8))
    (fun (tasks, domains) ->
      let f i = (2 * i) + 1 in
      let reference = List.init tasks f in
      List.for_all
        (fun chunk -> !(collect ~chunk ~domains ~tasks f) = reference)
        [ 1; 2; 5; 13; 64 ])

(* Float accumulation is not associative, so bit-identity across domain
   counts is only guaranteed at a fixed chunk size — which is exactly
   what the engine promises (and the default chunk size is a function of
   the task count alone). *)
let test_float_bit_identity () =
  let sum ~domains ?chunk () =
    let r =
      Parallel.map_reduce ~domains ?chunk ~tasks:1000
        ~init:(fun () -> ref 0.)
        ~merge:(fun a b ->
          a := !a +. !b;
          a)
        (fun acc i -> acc := !acc +. (1. /. float_of_int (i + 1)))
    in
    Int64.bits_of_float !r
  in
  let want = sum ~domains:1 ~chunk:9 () in
  List.iter
    (fun domains ->
      Alcotest.(check int64)
        (Printf.sprintf "bit-identical float sum at %d domains" domains)
        want
        (sum ~domains ~chunk:9 ()))
    [ 2; 3; 8 ];
  (* default chunk: still invariant across domains, by construction *)
  let want = sum ~domains:1 () in
  List.iter
    (fun domains ->
      Alcotest.(check int64)
        (Printf.sprintf "default chunk bit-identical at %d domains" domains)
        want
        (sum ~domains ()))
    [ 2; 3; 8 ]

let test_default_chunk_task_only () =
  Alcotest.(check int) "zero tasks" 1 (Parallel.default_chunk ~tasks:0);
  Alcotest.(check int) "small" 1 (Parallel.default_chunk ~tasks:64);
  Alcotest.(check int) "10k" 157 (Parallel.default_chunk ~tasks:10_000);
  (* ≤ 64 chunks *)
  List.iter
    (fun tasks ->
      let chunk = Parallel.default_chunk ~tasks in
      let nchunks = (tasks + chunk - 1) / chunk in
      if nchunks > 64 then
        Alcotest.failf "tasks=%d gives %d chunks" tasks nchunks)
    [ 1; 63; 64; 65; 1000; 9999; 123_456 ]

let test_validation () =
  let run ?domains ?chunk ?tasks () =
    ignore
      (Parallel.map_reduce ?domains ?chunk ~tasks:(Option.value tasks ~default:4)
         ~init:(fun () -> ())
         ~merge:(fun () () -> ())
         (fun () _ -> ()))
  in
  Alcotest.check_raises "negative tasks"
    (Invalid_argument "Parallel.map_reduce: tasks") (fun () ->
      run ~tasks:(-1) ());
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Parallel.map_reduce: domains") (fun () ->
      run ~domains:0 ());
  Alcotest.check_raises "zero chunk"
    (Invalid_argument "Parallel.map_reduce: chunk") (fun () ->
      run ~chunk:0 ())

(* --- exception safety --------------------------------------------------- *)

exception Boom of int

let raising_run ?(tasks = 64) ?(raise_at = fun i -> i = 5) ~domains () =
  Parallel.map_reduce ~domains ~chunk:1 ~tasks
    ~init:(fun () -> ref 0)
    ~merge:(fun a b ->
      a := !a + !b;
      a)
    (fun acc i -> if raise_at i then raise (Boom i) else acc := !acc + 1)

let test_task_exception_propagates () =
  (match raising_run ~domains:4 () with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 5 -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e));
  (* The engine is intact afterwards: a normal run still works. *)
  let total =
    Parallel.map_reduce ~domains:4 ~tasks:100
      ~init:(fun () -> ref 0)
      ~merge:(fun a b ->
        a := !a + !b;
        a)
      (fun acc i -> acc := !acc + i)
  in
  Alcotest.(check int) "after failure" 4950 !total

(* Regression for the pre-engine bug: [map_reduce] never joined its
   workers when the first stripe raised. Each leaked domain stays alive
   until process exit, and the runtime refuses to spawn more than ~128
   domains — so 60 raising runs at 4 domains each (180 spawn attempts)
   only succeed if every run joins all of its workers before re-raising. *)
let test_raising_runs_do_not_leak_domains () =
  for _ = 1 to 60 do
    match raising_run ~domains:4 () with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom 5 -> ()
    | exception e ->
      Alcotest.failf "domain leak? spawn failed with %s" (Printexc.to_string e)
  done

let test_every_task_raises_deterministic_error () =
  (* All chunks raise concurrently; the engine must re-raise the failure
     of the lowest-numbered chunk — index 0 — whatever the schedule. *)
  for _ = 1 to 10 do
    match
      raising_run ~tasks:32 ~raise_at:(fun _ -> true) ~domains:4 ()
    with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom 0 -> ()
    | exception Boom i -> Alcotest.failf "non-deterministic error: Boom %d" i
  done

let test_init_exception_joins () =
  (* A raising [init] is a chunk failure too. *)
  for _ = 1 to 40 do
    match
      Parallel.map_reduce ~domains:4 ~chunk:1 ~tasks:16
        ~init:(fun () -> failwith "init")
        ~merge:(fun a _ -> a)
        (fun _ _ -> ())
    with
    | _ -> Alcotest.fail "expected Failure"
    | exception Failure msg when msg = "init" -> ()
    | exception e ->
      Alcotest.failf "domain leak? got %s" (Printexc.to_string e)
  done

(* --- observability ------------------------------------------------------ *)

let test_obs_engine_counters () =
  (* [~obs] receives the engine's own counters, added once per call on
     the coordinator after the barrier. *)
  List.iter
    (fun domains ->
      let reg = Metrics.create () in
      let tasks = 40 in
      let total =
        Parallel.map_reduce ~domains ~chunk:1 ~obs:reg ~tasks
          ~init:(fun () -> ref 0)
          ~merge:(fun a b ->
            a := !a + !b;
            a)
          (fun acc _ -> incr acc)
      in
      Alcotest.(check int) "all tasks ran" tasks !total;
      let snap = Metrics.snapshot reg in
      let counter name = Option.get (Metrics.find_counter snap name) in
      Alcotest.(check int) "engine task counter" tasks
        (counter "parallel.tasks");
      Alcotest.(check int) "engine chunk counter" tasks
        (counter "parallel.chunks");
      let eff = counter "parallel.domains" in
      Alcotest.(check bool)
        (Printf.sprintf "effective parallelism within the request of %d"
           domains)
        true
        (eff >= 1 && eff <= domains);
      Alcotest.(check int) "every other seat is a pooled worker" (eff - 1)
        (counter "parallel.pool.workers"))
    [ 1; 4 ]

(* --- environment handling ----------------------------------------------- *)

let with_domains_env value f =
  let old = Sys.getenv_opt "FAIRMIS_DOMAINS" in
  Unix.putenv "FAIRMIS_DOMAINS" value;
  Fun.protect
    ~finally:(fun () ->
      (* putenv cannot unset; an empty/garbage value parses as unset. *)
      Unix.putenv "FAIRMIS_DOMAINS" (Option.value old ~default:""))
    f

let test_default_domains_env () =
  with_domains_env "3" (fun () ->
      Alcotest.(check int) "env honored" 3 (Parallel.default_domains ()));
  with_domains_env "17" (fun () ->
      Alcotest.(check int) "env not capped at 8" 17 (Parallel.default_domains ()));
  let fallback () =
    Alcotest.(check bool) "recommended fallback" true
      (Parallel.default_domains ()
      >= 1
      && Parallel.default_domains ()
         <= max 1 (Domain.recommended_domain_count ()))
  in
  with_domains_env "0" fallback;
  with_domains_env "-2" fallback;
  with_domains_env "banana" fallback

(* --- the worker pool ---------------------------------------------------- *)

let with_env name value f =
  let old = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () ->
      (* putenv cannot unset; an empty/garbage value parses as unset. *)
      Unix.putenv name (Option.value old ~default:""))
    f

(* Raise the active-domain clamp so these tests exercise real pooled
   workers even on a 1-core box, and shut the pool down afterwards so no
   parked domains outlive the test (every live domain joins the minor-GC
   rendezvous and would slow the rest of the suite). *)
let with_pool_cap cap f =
  with_env "FAIRMIS_POOL_CAP" (string_of_int cap) (fun () ->
      Fun.protect ~finally:Parallel.shutdown f)

let float_bits ~domains () =
  let r =
    Parallel.map_reduce ~domains ~chunk:9 ~tasks:333
      ~init:(fun () -> ref 0.)
      ~merge:(fun a b ->
        a := !a +. !b;
        a)
      (fun acc i -> acc := !acc +. (1. /. float_of_int (i + 1)))
  in
  Int64.bits_of_float !r

(* The warm-vs-cold battery: the very first call after a (re)spawn and
   the hundredth reuse of the same pool must both be bit-identical to
   the serial reference, at every domain count — the pool's state is
   invisible in the output. *)
let test_pool_cold_vs_warm () =
  with_pool_cap 8 (fun () ->
      let f i = (i * 31) lxor (i lsr 1) in
      let want_list = List.init 50 f in
      let want_bits = float_bits ~domains:1 () in
      List.iter
        (fun domains ->
          Parallel.shutdown ();
          (* cold pool: this call respawns the workers *)
          let cold = collect ~chunk:7 ~domains ~tasks:50 f in
          Alcotest.(check (list int))
            (Printf.sprintf "cold run, d=%d" domains)
            want_list !cold;
          Alcotest.(check int64)
            (Printf.sprintf "cold float bits, d=%d" domains)
            want_bits (float_bits ~domains ());
          for k = 1 to 100 do
            let warm = collect ~chunk:7 ~domains ~tasks:50 f in
            if !warm <> want_list then
              Alcotest.failf "warm reuse #%d diverged at d=%d" k domains;
            if k mod 10 = 0 then
              Alcotest.(check int64)
                (Printf.sprintf "warm float bits #%d, d=%d" k domains)
                want_bits (float_bits ~domains ())
          done)
        [ 1; 2; 3; 8 ])

let prop_pool_warm_cold_invariance =
  Helpers.qtest ~count:25 "pool determinism: warm vs cold x domains x chunk"
    QCheck.(pair (int_range 0 60) (int_range 1 17))
    (fun (tasks, chunk) ->
      with_pool_cap 8 (fun () ->
          let f i = (i * i) - (3 * i) in
          let reference = List.init tasks f in
          List.for_all
            (fun domains ->
              Parallel.shutdown ();
              let cold = !(collect ~chunk ~domains ~tasks f) in
              let warm = !(collect ~chunk ~domains ~tasks f) in
              cold = reference && warm = reference)
            [ 1; 2; 3; 8 ]))

let test_pool_survives_raising_tasks () =
  with_pool_cap 8 (fun () ->
      Parallel.shutdown ();
      ignore (collect ~chunk:1 ~domains:4 ~tasks:16 (fun i -> i));
      let size0 = Parallel.pool_size () in
      let spawned0 = Parallel.pool_spawned_total () in
      Alcotest.(check int) "pool warmed to 3 workers" 3 size0;
      for _ = 1 to 30 do
        match raising_run ~domains:4 () with
        | _ -> Alcotest.fail "expected Boom"
        | exception Boom 5 -> ()
        | exception e ->
          Alcotest.failf "wrong exception %s" (Printexc.to_string e)
      done;
      Alcotest.(check int) "no leaked domains" size0 (Parallel.pool_size ());
      Alcotest.(check int) "no respawn churn" spawned0
        (Parallel.pool_spawned_total ());
      let total =
        Parallel.map_reduce ~domains:4 ~tasks:100
          ~init:(fun () -> ref 0)
          ~merge:(fun a b ->
            a := !a + !b;
            a)
          (fun acc i -> acc := !acc + i)
      in
      Alcotest.(check int) "pool reusable after failures" 4950 !total)

let test_pool_shutdown_then_reuse () =
  with_pool_cap 8 (fun () ->
      Parallel.shutdown ();
      let spawned0 = Parallel.pool_spawned_total () in
      ignore (collect ~chunk:1 ~domains:3 ~tasks:12 (fun i -> i));
      Alcotest.(check int) "grown to 2 workers" 2 (Parallel.pool_size ());
      Alcotest.(check int) "2 domains spawned" (spawned0 + 2)
        (Parallel.pool_spawned_total ());
      Parallel.shutdown ();
      Alcotest.(check int) "empty after shutdown" 0 (Parallel.pool_size ());
      Parallel.shutdown ();
      Alcotest.(check int) "shutdown is idempotent" 0 (Parallel.pool_size ());
      let got = collect ~chunk:1 ~domains:3 ~tasks:12 (fun i -> i * 2) in
      Alcotest.(check (list int))
        "respawned pool computes correctly"
        (List.init 12 (fun i -> i * 2))
        !got;
      Alcotest.(check int) "respawn visible in spawn counter" (spawned0 + 4)
        (Parallel.pool_spawned_total ()))

let test_shutdown_inside_task_rejected () =
  with_pool_cap 8 (fun () ->
      Alcotest.check_raises "shutdown from a task"
        (Invalid_argument "Parallel.shutdown: called from inside map_reduce")
        (fun () ->
          ignore
            (Parallel.map_reduce ~domains:1 ~chunk:1 ~tasks:2
               ~init:(fun () -> ())
               ~merge:(fun () () -> ())
               (fun () _ -> Parallel.shutdown ()))))

let test_nested_map_reduce_serialized () =
  (* A map_reduce from inside a running task must not touch the pool
     (the outer job owns it): it runs serially on the calling domain,
     produces the same answer, and publishes no job. *)
  with_pool_cap 8 (fun () ->
      Parallel.shutdown ();
      ignore (collect ~chunk:1 ~domains:4 ~tasks:4 (fun i -> i));
      let jobs0 = Parallel.pool_jobs_total () in
      let got =
        Parallel.map_reduce ~domains:4 ~chunk:1 ~tasks:8
          ~init:(fun () -> ref 0)
          ~merge:(fun a b ->
            a := !a + !b;
            a)
          (fun acc i ->
            let inner =
              Parallel.map_reduce ~domains:8 ~chunk:1 ~tasks:(i + 1)
                ~init:(fun () -> ref 0)
                ~merge:(fun a b ->
                  a := !a + !b;
                  a)
                (fun acc j -> acc := !acc + j)
            in
            acc := !acc + !inner)
      in
      let want =
        List.fold_left ( + ) 0 (List.init 8 (fun i -> i * (i + 1) / 2))
      in
      Alcotest.(check int) "nested sums correct" want !got;
      Alcotest.(check int) "nested calls published no pool job" (jobs0 + 1)
        (Parallel.pool_jobs_total ()))

let test_pool_env_semantics () =
  (* FAIRMIS_DOMAINS is the per-call request, re-read every call;
     FAIRMIS_POOL_CAP clamps what actually runs. The effective
     parallelism is observable as the parallel.domains counter. *)
  let eff_of () =
    let reg = Metrics.create () in
    ignore
      (Parallel.map_reduce ~chunk:1 ~obs:reg ~tasks:32
         ~init:(fun () -> ())
         ~merge:(fun () () -> ())
         (fun () _ -> ()));
    Option.get (Metrics.find_counter (Metrics.snapshot reg) "parallel.domains")
  in
  with_pool_cap 2 (fun () ->
      Parallel.shutdown ();
      with_domains_env "8" (fun () ->
          Alcotest.(check int) "request clamped to the cap" 2 (eff_of ());
          Alcotest.(check int) "one pooled worker" 1 (Parallel.pool_size ()));
      with_domains_env "3" (fun () ->
          with_env "FAIRMIS_POOL_CAP" "8" (fun () ->
              Alcotest.(check int) "FAIRMIS_DOMAINS re-read per call" 3
                (eff_of ());
              Alcotest.(check int) "pool grew on demand" 2
                (Parallel.pool_size ())));
      with_domains_env "4" (fun () ->
          with_env "FAIRMIS_POOL_CAP" "1" (fun () ->
              Alcotest.(check int) "cap 1 forces the serial path" 1
                (eff_of ());
              Alcotest.(check int) "pool never shrinks below shutdown" 2
                (Parallel.pool_size ()))))

let test_empty_and_serial_calls_wake_nobody () =
  with_pool_cap 8 (fun () ->
      Parallel.shutdown ();
      let jobs0 = Parallel.pool_jobs_total () in
      let spawned0 = Parallel.pool_spawned_total () in
      let r =
        Parallel.map_reduce ~domains:8 ~tasks:0
          ~init:(fun () -> 42)
          ~merge:(fun a _ -> a)
          (fun _ _ -> ())
      in
      Alcotest.(check int) "empty input returns init" 42 r;
      let got = collect ~chunk:100 ~domains:8 ~tasks:37 (fun i -> i) in
      Alcotest.(check (list int))
        "single-chunk run correct"
        (List.init 37 Fun.id)
        !got;
      Alcotest.(check int) "no pool job published" jobs0
        (Parallel.pool_jobs_total ());
      Alcotest.(check int) "no domain spawned" spawned0
        (Parallel.pool_spawned_total ());
      Alcotest.(check int) "pool still empty" 0 (Parallel.pool_size ()))

let test_obs_fresh_registries_on_warm_pool () =
  (* Pooled workers live across jobs; what a job records does not. A
     cold and a warm instrumented run, each on a fresh registry, read the
     same engine counters. *)
  with_pool_cap 8 (fun () ->
      Parallel.shutdown ();
      let run () =
        let reg = Metrics.create () in
        ignore
          (Parallel.map_reduce ~domains:4 ~chunk:1 ~obs:reg ~tasks:20
             ~init:(fun () -> ())
             ~merge:(fun () () -> ())
             (fun () _ -> ()));
        let snap = Metrics.snapshot reg in
        ( Option.get (Metrics.find_counter snap "parallel.tasks"),
          Option.get (Metrics.find_counter snap "parallel.pool.workers") )
      in
      let cold_tasks, cold_workers = run () in
      Alcotest.(check int) "cold obs run" 20 cold_tasks;
      Alcotest.(check int) "cold run used 3 pooled workers" 3 cold_workers;
      let warm_tasks, warm_workers = run () in
      Alcotest.(check int) "warm obs run does not double-count" 20 warm_tasks;
      Alcotest.(check int) "warm run reused 3 pooled workers" 3 warm_workers)

(* --- through the Montecarlo stack ---------------------------------------- *)

let test_montecarlo_engine_stress () =
  (* A seeded MIS workload across domain counts AND chunk sizes: the
     full stack (Montecarlo over the engine) must agree with serial. *)
  let view = Mis_graph.View.full (Helpers.random_tree ~seed:21 ~n:30) in
  let run ~seed = Fairmis.Luby.run view (Fairmis.Rand_plan.make seed) in
  let cfg domains = { Mis_stats.Montecarlo.trials = 120; base_seed = 7; domains = Some domains } in
  let joins domains =
    Mis_obs.Fairness.joins (Mis_stats.Montecarlo.run (cfg domains) ~n:30 run)
  in
  let want = joins 1 in
  List.iter
    (fun domains ->
      Alcotest.check Helpers.int_array
        (Printf.sprintf "joins at %d domains" domains)
        want (joins domains))
    [ 2; 3; 8 ]

let suite =
  [ ( "parallel.engine",
      [ Alcotest.test_case "ordered reduction" `Quick test_ordered_reduction;
        prop_domain_count_invariance;
        prop_chunk_size_invariance;
        Alcotest.test_case "float bit-identity" `Quick test_float_bit_identity;
        Alcotest.test_case "default chunk is task-only" `Quick
          test_default_chunk_task_only;
        Alcotest.test_case "argument validation" `Quick test_validation ] );
    ( "parallel.exceptions",
      [ Alcotest.test_case "task exception propagates" `Quick
          test_task_exception_propagates;
        Alcotest.test_case "raising runs do not leak domains" `Quick
          test_raising_runs_do_not_leak_domains;
        Alcotest.test_case "deterministic error choice" `Quick
          test_every_task_raises_deterministic_error;
        Alcotest.test_case "init exception joins workers" `Quick
          test_init_exception_joins ] );
    ( "parallel.obs",
      [ Alcotest.test_case "engine counters recorded after the barrier" `Quick
          test_obs_engine_counters ] );
    ( "parallel.config",
      [ Alcotest.test_case "FAIRMIS_DOMAINS handling" `Quick
          test_default_domains_env ] );
    ( "parallel.pool",
      [ Alcotest.test_case "warm vs cold bit-identity" `Slow
          test_pool_cold_vs_warm;
        prop_pool_warm_cold_invariance;
        Alcotest.test_case "raising tasks leave pool reusable" `Quick
          test_pool_survives_raising_tasks;
        Alcotest.test_case "shutdown then reuse respawns" `Quick
          test_pool_shutdown_then_reuse;
        Alcotest.test_case "shutdown inside a task rejected" `Quick
          test_shutdown_inside_task_rejected;
        Alcotest.test_case "nested map_reduce serialized off the pool" `Quick
          test_nested_map_reduce_serialized;
        Alcotest.test_case "FAIRMIS_DOMAINS / FAIRMIS_POOL_CAP semantics"
          `Quick test_pool_env_semantics;
        Alcotest.test_case "empty and single-chunk calls wake nobody" `Quick
          test_empty_and_serial_calls_wake_nobody;
        Alcotest.test_case "fresh per-job registries on a warm pool" `Quick
          test_obs_fresh_registries_on_warm_pool ] );
    ( "parallel.stack",
      [ Alcotest.test_case "montecarlo across domains and chunks" `Quick
          test_montecarlo_engine_stress ] ) ]
