(* Equivalence of the compiled engine and the legacy entry point:
   [Runtime.Engine.exec] on a prebuilt engine must produce the same
   outcome record and the same traced event stream as a fresh
   [Runtime.run], for every topology, fault plan and seed — including
   when one engine is reused across many trials and across different
   fault plans (the reset-in-place paths). *)

module View = Mis_graph.View
module Program = Mis_sim.Program
module Node_ctx = Mis_sim.Node_ctx
module Runtime = Mis_sim.Runtime
module Fault = Mis_sim.Fault
module Trace = Mis_obs.Trace
module Rand_plan = Fairmis.Rand_plan
module Splitmix = Mis_util.Splitmix

(* A deliberately message-heavy program: floods the max id, unicasts to
   the smallest neighbor, probes per round — so Broadcast, Send and
   Probe, multi-message rounds and nontrivial decide rounds are all
   exercised. *)
let gossip_program ~k : (int * int, int) Program.t =
  let smallest_nbr ctx =
    Array.fold_left
      (fun acc id -> match acc with Some b when b <= id -> acc | _ -> Some id)
      None ctx.Node_ctx.neighbor_ids
  in
  let chatter ctx best =
    let acts = [ Program.Broadcast best; Program.Probe ("gossip.best", best) ] in
    match smallest_nbr ctx with
    | Some nb -> Program.Send (nb, best + 1) :: acts
    | None -> acts
  in
  { Program.name = "gossip";
    init = (fun ctx -> ((ctx.Node_ctx.id, k), chatter ctx ctx.Node_ctx.id));
    receive =
      (fun ctx (best, left) inbox ->
        let best = List.fold_left (fun a (_, v) -> max a v) best inbox in
        if left <= 1 then (Program.Output (best mod 2 = 0), [])
        else (Program.Continue (best, left - 1), chatter ctx best)) }

let view_of gk ~n ~gseed =
  match gk with
  | 0 -> View.full (Helpers.random_tree ~seed:gseed ~n)
  | 1 -> View.full (Helpers.random_graph ~seed:gseed ~n ~p:0.2)
  | _ ->
    View.full (Mis_workload.Bipartite.grid ~width:4 ~height:(max 1 (n / 4)))

let fault_of fk ~n ~fseed =
  match fk with
  | 0 -> None
  | 1 -> Some (Fault.create ~seed:fseed ~drop:0.2 ())
  | 2 -> Some (Fault.create ~seed:fseed ~max_delay:2 ())
  | 3 ->
    Some (Fault.create ~seed:fseed ~crashes:[ (n / 2, 1); (n - 1, 2) ] ())
  | _ ->
    Some
      (Fault.create ~seed:fseed ~drop:0.1 ~max_delay:3
         ~crashes:[ (n / 3, 2) ] ())

let rng_of seed u = Splitmix.stream (Int64.of_int seed) [ u ]

(* One traced run through each entry point; [engine] is the shared
   compiled engine under test. *)
let runs_equal ?faults ~seed view engine prog =
  let sink_f, evs_f = Trace.memory () in
  let fresh = Runtime.run ?faults ~tracer:sink_f ~rng_of:(rng_of seed) view prog in
  let sink_e, evs_e = Trace.memory () in
  let reused =
    Runtime.Engine.exec ?faults ~tracer:sink_e ~rng_of:(rng_of seed) engine prog
  in
  fresh = reused && evs_f () = evs_e ()

let arb_case =
  QCheck.make
    ~print:(fun (gk, n, gseed, fseed) ->
      Printf.sprintf "graph=%d n=%d gseed=%d fseed=%d" gk n gseed fseed)
    QCheck.Gen.(
      quad (int_range 0 2) (int_range 4 24) (int_range 0 1000)
        (int_range 0 1000))

(* The same engine value runs every fault plan and seed in sequence:
   state reset, ring resizing between plans with different delay bounds,
   and sequence-counter reuse are all on the line. *)
let prop_engine_matches_run (gk, n, gseed, fseed) =
  let view = view_of gk ~n ~gseed in
  let prog = gossip_program ~k:4 in
  let engine = Runtime.Engine.create view in
  List.for_all
    (fun fk ->
      let faults = fault_of fk ~n:(View.n view) ~fseed in
      List.for_all
        (fun seed -> runs_equal ?faults ~seed view engine prog)
        [ 1; 2 ])
    [ 0; 2; 1; 4; 3; 0 ]

let prop_luby_engine_matches_run (gk, n, gseed, _) =
  let view = view_of gk ~n ~gseed in
  let engine = Runtime.Engine.create view in
  List.for_all
    (fun seed ->
      let plan = Rand_plan.make seed in
      let sink_f, evs_f = Trace.memory () in
      let fresh = Fairmis.Luby.run_distributed ~tracer:sink_f view plan in
      let sink_e, evs_e = Trace.memory () in
      let reused = Fairmis.Luby.run_distributed_on ~tracer:sink_e engine plan in
      fresh = reused && evs_f () = evs_e ())
    [ 1; 2; 3 ]

(* In-flight accounting: a run cut off by [max_rounds] leaves the final
   round's sends unconsumed, and the outcome reports exactly those. *)
let test_in_flight_at_cutoff () =
  let chatty : (unit, int) Program.t =
    { Program.name = "chatty";
      init = (fun _ -> ((), [ Program.Broadcast 0 ]));
      receive = (fun _ () _ -> (Program.Continue (), [ Program.Broadcast 0 ])) }
  in
  let view = View.full (Mis_workload.Trees.path 2) in
  let o = Runtime.run ~max_rounds:3 ~rng_of:(rng_of 1) view chatty in
  (* 2 sends per round over rounds 0..3; round 3's two are still queued. *)
  Alcotest.(check int) "messages" 8 o.Runtime.messages;
  Alcotest.(check int) "in_flight" 2 o.Runtime.in_flight;
  (* A completing run on the perfect path consumes everything. *)
  let done_o =
    Runtime.run ~rng_of:(rng_of 1) view
      (gossip_program ~k:3 : (int * int, int) Program.t)
  in
  Alcotest.(check int) "drained" 0 done_o.Runtime.in_flight

(* Delayed deliveries addressed past a node's decide round stay in
   flight; conservation still closes against the trace. *)
let test_in_flight_under_delay () =
  let view = View.full (Helpers.random_tree ~seed:3 ~n:16) in
  let faults = Fault.create ~seed:7 ~max_delay:3 () in
  let sink, events = Trace.memory () in
  let o =
    Runtime.run ~faults ~tracer:sink ~rng_of:(rng_of 2) view
      (gossip_program ~k:5)
  in
  let received =
    List.fold_left
      (fun acc ev ->
        match ev with Trace.Recv { messages; _ } -> acc + messages | _ -> acc)
      0 (events ())
  in
  Alcotest.(check int) "conservation" o.Runtime.messages
    (received + o.Runtime.in_flight)

let suite =
  [ ( "sim.engine",
      [ Helpers.qtest ~count:60 "engine.exec = run (gossip, faults)" arb_case
          prop_engine_matches_run;
        Helpers.qtest ~count:40 "engine.exec = run (luby)" arb_case
          prop_luby_engine_matches_run;
        Alcotest.test_case "in-flight at max_rounds cutoff" `Quick
          test_in_flight_at_cutoff;
        Alcotest.test_case "in-flight under delay" `Quick
          test_in_flight_under_delay ] ) ]
