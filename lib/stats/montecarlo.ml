module Fairness = Mis_obs.Fairness

type config = {
  trials : int;
  base_seed : int;
  domains : int option;
}

let fold ?obs config ~init ~trial ~merge =
  if config.trials < 1 then invalid_arg "Montecarlo.fold: trials";
  Parallel.map_reduce ?domains:config.domains ?obs ~tasks:config.trials ~init
    ~merge
    (fun acc i -> trial acc ~seed:(config.base_seed + i))

(* The context value from [ctx ()] is created once per chunk, on the
   claiming domain (it runs inside the engine's per-chunk [init]), and
   rides in the accumulator pair untouched by merges — reuse without any
   effect on determinism. *)
let run_ctx ?check config ~n ~ctx run_once =
  snd
    (fold config
       ~init:(fun () -> (ctx (), Fairness.create ~n))
       ~merge:(fun (c, a) (_, b) ->
         Fairness.merge a b;
         (c, a))
       ~trial:(fun (c, acc) ~seed ->
         let outcome = run_once c ~seed in
         (* [record] rejects a wrong-length outcome before [check] sees
            it; a failing check aborts the whole run anyway. *)
         Fairness.record acc ~in_mis:outcome;
         match check with Some f -> f outcome | None -> ()))

let run ?check config ~n run_once =
  run_ctx ?check config ~n
    ~ctx:(fun () -> ())
    (fun () ~seed -> run_once ~seed)

(* One [make ()] per domain for the length of one call, looked up by
   domain id from the engine's per-chunk [init] on the claiming domain.
   A domain runs its chunks one after another, so the closure it finds
   is never in use by another chunk; only the domain itself adds its
   entry, so the CAS loop cannot add one twice. *)
let per_domain make =
  let made = Atomic.make [] in
  let rec add me x =
    let cur = Atomic.get made in
    if not (Atomic.compare_and_set made cur ((me, x) :: cur)) then add me x
  in
  fun () ->
    let me = (Domain.self () :> int) in
    match List.assoc_opt me (Atomic.get made) with
    | Some x -> x
    | None ->
      let x = make () in
      add me x;
      x

let run_buffered ?check config ~n make =
  run_ctx ?check config ~n ~ctx:(per_domain make) (fun run_once ~seed ->
      run_once ~seed)

let empirical view acc =
  Empirical.of_fairness
    ~mask:(Array.init (Mis_graph.View.n view) (Mis_graph.View.node_active view))
    acc

let estimate_ctx ?check config ~ctx view run_once =
  empirical view
    (run_ctx ?check config ~n:(Mis_graph.View.n view) ~ctx run_once)

let estimate ?check config view run_once =
  estimate_ctx ?check config
    ~ctx:(fun () -> ())
    view
    (fun () ~seed -> run_once ~seed)
