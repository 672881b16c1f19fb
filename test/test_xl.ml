(* engine/xl smoke: the compiled engine at n = 10^5 — the scale tier the
   worker pool and the direct-CSR topology constructors exist for — plus
   the full-size NYC-like tree pin.

   Gated behind FAIRMIS_XL=1 (CI sets it; a plain `dune runtest` skips
   in microseconds) because each case runs a six-figure-node protocol
   end to end. Marked `Slow for the same reason. *)

module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Trace = Mis_obs.Trace
module Runtime = Mis_sim.Runtime
module Splitmix = Mis_util.Splitmix

let xl_on = Sys.getenv_opt "FAIRMIS_XL" = Some "1"
let require_xl () = if not xl_on then Alcotest.skip ()
let n_xl = 100_000

let build_graph () = Mis_workload.Trees.random_attachment_xl (Splitmix.of_seed 97) ~n:n_xl

let test_luby_validity_and_conservation () =
  require_xl ();
  let g = build_graph () in
  let view = View.full g in
  let eng = Runtime.Engine.create view in
  (* A custom sink summing Recv batches: Run_end documents
     messages = in_flight + Σ Recv counts, and with no faults nothing is
     dropped — the books must close exactly even at 10^5 nodes. *)
  let recvd = ref 0 and decides = ref 0 in
  let sink =
    { Trace.emit =
        (fun ev ->
          match ev with
          | Trace.Recv { messages; _ } -> recvd := !recvd + messages
          | Trace.Decide _ -> incr decides
          | _ -> ());
      flush = (fun () -> ()) }
  in
  let o = Fairmis.Luby.run_distributed_on ~tracer:sink eng (Fairmis.Rand_plan.make 5) in
  Alcotest.(check bool) "every node decided" true
    (Array.for_all Fun.id o.Runtime.decided);
  Alcotest.(check int) "one decide event per node" n_xl !decides;
  Helpers.check_mis ~name:"xl luby" view o.Runtime.output;
  Alcotest.(check int) "message conservation: sent = received + in flight"
    o.Runtime.messages
    (!recvd + o.Runtime.in_flight);
  let rs_total =
    Array.fold_left (fun a r -> a + r.Runtime.rs_messages) 0 o.Runtime.round_stats
  in
  Alcotest.(check int) "round stats account every delivery" o.Runtime.messages
    rs_total;
  (* Reusing the engine at this scale stays bit-identical. *)
  let o2 = Fairmis.Luby.run_distributed_on eng (Fairmis.Rand_plan.make 5) in
  Alcotest.check Helpers.bool_array "engine reuse bit-identical"
    o.Runtime.output o2.Runtime.output

let test_live_words_ceiling () =
  require_xl ();
  (* O(n + m) residency, measured: major-heap live words before vs after
     building the topology + engine and running a full protocol. The
     measured footprint is ~42 words per (n+m) on OCaml 5.1, flat from
     n = 10^5 to 10^6 (CSR graph ~8, engine index incl. message ring and
     cached contexts ~25, Luby states + outcome the rest); 90 gives >2x
     headroom while still failing loudly on any per-node leak of boxed
     state — one extra list cell per node per round would blow through
     it. *)
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let g = build_graph () in
  let eng = Runtime.Engine.create (View.full g) in
  let o = Fairmis.Luby.run_distributed_on eng (Fairmis.Rand_plan.make 5) in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  Alcotest.(check bool) "decided" true (Array.for_all Fun.id o.Runtime.decided);
  let nm = n_xl + Graph.m g in
  let delta = after - before in
  let ceiling = 90 * nm in
  if delta > ceiling then
    Alcotest.failf "live words %d exceed %d = 90 * (n + m)" delta ceiling;
  (* keep everything rooted until after the measurement *)
  ignore (Sys.opaque_identity (g, eng, o))

let test_of_parents_scale () =
  require_xl ();
  (* The direct CSR constructor at scale: structural sanity without ever
     materializing an edge list. *)
  let g = build_graph () in
  Alcotest.(check int) "n" n_xl (Graph.n g);
  Alcotest.(check int) "tree edge count" (n_xl - 1) (Graph.m g);
  Alcotest.(check bool) "is a tree" true
    (Mis_graph.Traverse.is_tree (View.full g))

(* kernel/xl smoke: the data-parallel backend at the same scale — the
   whole point of the sweeps is this tier. Checks validity, full
   decision coverage, bit-identity against the message engine, and the
   kernel's residency after warm Luby and FairTree runs. *)
let test_kernel_luby_xl () =
  require_xl ();
  let g = build_graph () in
  let view = View.full g in
  let plan = Fairmis.Rand_plan.make 5 in
  let kernel = Mis_sim.Kernel.create view in
  let k = Fairmis.Luby.run_kernel_on kernel plan in
  Alcotest.(check bool) "every node decided" true
    (Array.for_all Fun.id k.Mis_sim.Kernel.decided);
  Helpers.check_mis ~name:"xl kernel luby" view k.Mis_sim.Kernel.output;
  let eng = Runtime.Engine.create view in
  let o = Fairmis.Luby.run_distributed_on eng plan in
  Alcotest.check Helpers.bool_array "kernel = engine at n=1e5"
    o.Runtime.output k.Mis_sim.Kernel.output;
  Alcotest.(check int) "rounds agree" o.Runtime.rounds k.Mis_sim.Kernel.rounds;
  (* Kernel reuse at scale stays bit-identical. *)
  let k2 = Fairmis.Luby.run_kernel_on kernel plan in
  Alcotest.check Helpers.bool_array "kernel reuse bit-identical"
    k.Mis_sim.Kernel.output k2.Mis_sim.Kernel.output;
  (* The compiled kernel stays lean at scale: the same residency bound as
     the n = 3,906 case in test_kernel.ml. *)
  let words = Helpers.kernel_words_per_node view kernel in
  if words > 11.4 then
    Alcotest.failf "kernel holds %.1f words per node at n=1e5, above 11.4" words

let test_kernel_fair_tree_xl () =
  require_xl ();
  let g = build_graph () in
  let view = View.full g in
  let plan = Fairmis.Rand_plan.make 7 in
  let k = Fairmis.Fair_tree_distributed.run_kernel view plan in
  Alcotest.(check bool) "every node decided" true
    (Array.for_all Fun.id k.Mis_sim.Kernel.decided);
  Helpers.check_mis ~name:"xl kernel fairtree" view k.Mis_sim.Kernel.output

(* The full NYC-like tree (n = 17,834 from 19,000 points), pinned byte
   for byte like its smaller siblings in the workload suite. *)
let test_nyc_like_pin () =
  require_xl ();
  Alcotest.(check string) "nyc_like ~seed:1" "f678f518f7449cbb6ab8e5daed2e23a4"
    (Helpers.edges_digest (Mis_workload.Real_world.nyc_like ~seed:1))

let suite =
  [ ( "engine.xl",
      [ Alcotest.test_case "luby n=1e5: validity + conservation" `Slow
          test_luby_validity_and_conservation;
        Alcotest.test_case "live-words ceiling c(n+m)" `Slow
          test_live_words_ceiling;
        Alcotest.test_case "of_parents topology at scale" `Slow
          test_of_parents_scale ] );
    ( "kernel.xl",
      [ Alcotest.test_case "kernel luby n=1e5: validity + equivalence" `Slow
          test_kernel_luby_xl;
        Alcotest.test_case "kernel fairtree n=1e5: validity" `Slow
          test_kernel_fair_tree_xl ] );
    ( "workload.xl",
      [ Alcotest.test_case "nyc-like tree edge digest" `Slow test_nyc_like_pin ] ) ]
