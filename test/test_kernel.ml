(* Kernel equivalence: the data-parallel [Mis_sim.Kernel] sweeps must be
   bit-identical to the message engine — same outputs, same decided set,
   same per-node decision round (recovered from the traced Decide
   events), same [rounds] total — across topologies, seeds, and reused
   kernels/engines. The kernel-backed [Runners.luby] / [Runners.fair_tree]
   that every experiment uses must return the message program's MIS, at
   any domain count with one kernel shared by the pool. [Luby.run_stats]
   (the kernel with no round cutoff, behind [Luby.run] and the FairBipart
   and ColorMIS fallbacks) is pinned, MIS and phase count, against the
   original list-based centralized loop. The kernel numbers its slots
   in its own (BFS) order, so its outcome must also be invariant under
   relabelling the nodes with their ids kept. *)

module View = Mis_graph.View
module Runtime = Mis_sim.Runtime
module Kernel = Mis_sim.Kernel
module Trace = Mis_obs.Trace
module Rand_plan = Fairmis.Rand_plan

(* Kinds 4 to 6 are a randomly masked random graph, a randomly masked
   tree (a forest of several BFS roots, isolated nodes among them) and a
   fully masked tree (an empty active set). *)
let view_of gk ~n ~gseed =
  let masked g =
    let rng = Mis_util.Splitmix.of_seed (gseed + 31) in
    View.restrict
      ~nodes:(Array.init n (fun _ -> Mis_util.Splitmix.float rng < 0.6))
      g
  in
  match gk with
  | 0 -> View.full (Helpers.random_tree ~seed:gseed ~n)
  | 1 -> View.full (Helpers.random_graph ~seed:gseed ~n ~p:0.2)
  | 2 ->
    View.full (Mis_workload.Bipartite.grid ~width:4 ~height:(max 1 (n / 4)))
  | 3 -> View.full (Mis_workload.Real_world.dartmouth_like ~seed:gseed)
  | 4 -> masked (Helpers.random_graph ~seed:gseed ~n ~p:0.2)
  | 5 -> masked (Helpers.random_tree ~seed:gseed ~n)
  | _ -> View.restrict ~nodes:(Array.make n false) (Helpers.random_tree ~seed:gseed ~n)

(* Per-node decision rounds from a traced message run. *)
let decide_rounds ~n events =
  let dr = Array.make n (-1) in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Decide { round; node; _ } -> dr.(node) <- round
      | _ -> ())
    events;
  dr

let outcome_matches ~name view (o : Runtime.outcome) events
    (k : Kernel.outcome) =
  let n = View.n view in
  o.Runtime.output = k.Kernel.output
  && o.Runtime.decided = k.Kernel.decided
  && o.Runtime.rounds = k.Kernel.rounds
  && decide_rounds ~n events = k.Kernel.decide_round
  && (Fairmis.Mis.verify ~name view k.Kernel.output;
      true)

let arb_case =
  QCheck.make
    ~print:(fun (gk, n, gseed, pseed) ->
      Printf.sprintf "graph=%d n=%d gseed=%d pseed=%d" gk n gseed pseed)
    QCheck.Gen.(
      quad (int_range 0 6) (int_range 4 24) (int_range 0 1000)
        (int_range 0 1000))

(* One kernel value serves every seed in sequence: scratch reuse between
   runs is on the line, exactly like engine reuse. The compiled runner
   ([run view] applied once) is one more input: it must return the
   engine's MIS for every seed. *)
let prop_kernel_luby (gk, n, gseed, pseed) =
  let view = view_of gk ~n ~gseed in
  let kernel = Kernel.create view in
  let engine = Runtime.Engine.create view in
  let runner = Mis_exp.Runners.luby.Mis_exp.Runners.run view in
  List.for_all
    (fun seed ->
      let plan = Rand_plan.make seed in
      let sink, evs = Trace.memory () in
      let o = Fairmis.Luby.run_distributed_on ~tracer:sink engine plan in
      let k = Fairmis.Luby.run_kernel_on kernel plan in
      outcome_matches ~name:"kernel-luby" view o (evs ()) k
      && runner ~seed = o.Runtime.output)
    [ pseed; pseed + 1; pseed + 2 ]

let prop_kernel_fair_tree (gk, n, gseed, pseed) =
  let view = view_of gk ~n ~gseed in
  let kernel = Kernel.create view in
  let engine = Runtime.Engine.create view in
  let runner = Mis_exp.Runners.fair_tree.Mis_exp.Runners.run view in
  List.for_all
    (fun seed ->
      let plan = Rand_plan.make seed in
      let sink, evs = Trace.memory () in
      let o = Fairmis.Fair_tree_distributed.run_on ~tracer:sink engine plan in
      let k = Fairmis.Fair_tree_distributed.run_kernel_on kernel plan in
      outcome_matches ~name:"kernel-fairtree" view o (evs ()) k
      && runner ~seed = o.Runtime.output)
    [ pseed; pseed + 1 ]

(* Stage 1's participants split by the path that decides them: the
   nodes of components of the uncut edges whose max id lies within
   [gamma] hops of every member, which the kernel resolves directly, and
   the rest, which it simulates round by round. Ids are node indices. *)
let stage1_split view plan ~gamma =
  let n = View.n view in
  let seen = Array.make n false and dist = Array.make n (-1) in
  let kept u w =
    not (Rand_plan.edge_bit plan ~stage:Rand_plan.Stage.fair_tree_cut ~u ~v:w)
  in
  let resolved = ref 0 and simulated = ref 0 in
  View.iter_active view (fun s ->
      if not seen.(s) then begin
        let members = ref [] and stack = ref [ s ] in
        seen.(s) <- true;
        while !stack <> [] do
          let u = List.hd !stack in
          stack := List.tl !stack;
          members := u :: !members;
          View.iter_adj view u (fun w ->
              if (not seen.(w)) && kept u w then begin
                seen.(w) <- true;
                stack := w :: !stack
              end)
        done;
        let m = List.fold_left max s !members in
        let far = ref 0 and queue = Queue.create () in
        dist.(m) <- 0;
        Queue.add m queue;
        while not (Queue.is_empty queue) do
          let u = Queue.pop queue in
          far := max !far dist.(u);
          View.iter_adj view u (fun w ->
              if dist.(w) < 0 && kept u w then begin
                dist.(w) <- dist.(u) + 1;
                Queue.add w queue
              end)
        done;
        let len = List.length !members in
        if !far <= gamma then resolved := !resolved + len
        else simulated := !simulated + len
      end);
  (!resolved, !simulated)

(* A tiny gamma keeps the floods unconverged on larger graphs, forcing
   the cutoff/partial-propagation paths to agree too, and makes the
   kernel simulate rounds for the components with a node beyond gamma:
   at least the stage-1 nodes [stage1_split] counts. [mixed] counts the
   cases whose stage 1 resolves some components and simulates others. *)
let prop_kernel_fair_tree_small_gamma mixed (gk, n, gseed, pseed) =
  let view = view_of gk ~n ~gseed in
  let plan = Rand_plan.make pseed in
  List.for_all
    (fun gamma ->
      let sink, evs = Trace.memory () in
      let o = Fairmis.Fair_tree_distributed.run ~gamma ~tracer:sink view plan in
      let k = Fairmis.Fair_tree_distributed.run_kernel ~gamma view plan in
      let n = View.n view in
      let resolved1, simulated1 = stage1_split view plan ~gamma in
      if resolved1 > 0 && simulated1 > 0 then incr mixed;
      o.Runtime.output = k.Kernel.output
      && o.Runtime.decided = k.Kernel.decided
      && o.Runtime.rounds = k.Kernel.rounds
      && decide_rounds ~n (evs ()) = k.Kernel.decide_round
      && k.Kernel.simulated >= simulated1)
    [ 1; 2 ]

(* The property above, which must also meet a stage that runs both
   paths side by side at least once. *)
let test_kernel_fair_tree_small_gamma =
  let mixed = ref 0 in
  let name, speed, run =
    Helpers.qtest ~count:20 "kernel = engine (fairtree, small gamma)" arb_case
      (prop_kernel_fair_tree_small_gamma mixed)
  in
  Alcotest.test_case name speed (fun () ->
      mixed := 0;
      run ();
      if !mixed = 0 then
        Alcotest.fail "no stage 1 both resolved and simulated components")

(* [simulated] counts what the round simulation decided: nothing on the
   Table I trees (NYC-like at full size) at the default gamma, where
   every stage's components are far smaller than gamma, and part of a
   long path at gamma = 1, where the kernel still equals the engine. *)
let test_kernel_simulated_counts () =
  let cfg =
    { (Mis_exp.Config.load ()) with Mis_exp.Config.nyc = Mis_exp.Config.Nyc_full }
  in
  List.iter
    (fun tree ->
      let kernel =
        Kernel.create (View.full (Lazy.force tree.Mis_exp.Workloads.graph))
      in
      for seed = 1 to 10 do
        let k =
          Fairmis.Fair_tree_distributed.run_kernel_on kernel (Rand_plan.make seed)
        in
        Alcotest.(check int) (tree.Mis_exp.Workloads.name ^ " simulated") 0
          k.Kernel.simulated
      done)
    (Mis_exp.Workloads.table1_trees cfg);
  let n = 200 in
  let view =
    View.full (Mis_graph.Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1))))
  in
  for seed = 1 to 5 do
    let plan = Rand_plan.make seed in
    let sink, evs = Trace.memory () in
    let o = Fairmis.Fair_tree_distributed.run ~gamma:1 ~tracer:sink view plan in
    let k = Fairmis.Fair_tree_distributed.run_kernel ~gamma:1 view plan in
    if k.Kernel.simulated = 0 then Alcotest.failf "seed %d: nothing simulated" seed;
    let _, tr = Fairmis.Fair_tree.run_traced ~gamma:1 view plan in
    Alcotest.(check int) "trace reports it" k.Kernel.simulated
      tr.Fairmis.Fair_tree.simulated;
    Alcotest.(check bool) "path, gamma 1: kernel = engine" true
      (outcome_matches ~name:"path" view o (evs ()) k)
  done;
  let luby = Fairmis.Luby.run_kernel_on (Kernel.create view) (Rand_plan.make 1) in
  Alcotest.(check int) "luby simulates nothing" 0 luby.Kernel.simulated

(* The engine's max_rounds cutoff semantics: decisions past the cutoff
   don't happen and [rounds = max_rounds] is reported. *)
let prop_kernel_luby_cutoff (gk, n, gseed, pseed) =
  let view = view_of gk ~n ~gseed in
  let plan = Rand_plan.make pseed in
  let nv = View.n view in
  List.for_all
    (fun max_rounds ->
      let sink, evs = Trace.memory () in
      let prog = Fairmis.Luby.program plan ~stage:Fairmis.Rand_plan.Stage.luby_main in
      let o =
        Runtime.run ~max_rounds ~tracer:sink
          ~rng_of:(fun u ->
            Rand_plan.node_stream plan ~stage:Fairmis.Rand_plan.Stage.luby_main
              ~node:u)
          view prog
      in
      let k =
        Kernel.luby ~max_rounds
          ~value_of:(fun ~round ~node ->
            Rand_plan.node_value plan
              ~stage:Fairmis.Rand_plan.Stage.luby_main ~round ~node)
          (Kernel.create view)
      in
      o.Runtime.output = k.Kernel.output
      && o.Runtime.decided = k.Kernel.decided
      && o.Runtime.rounds = k.Kernel.rounds
      && decide_rounds ~n:nv (evs ()) = k.Kernel.decide_round)
    [ 0; 1; 2; 3; 4; 7 ]

(* A uniform random permutation of [0, n), Fisher-Yates over [rng]. *)
let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Mis_util.Splitmix.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Program-visible ids that are not node indices: an offset random
   permutation, on a randomly masked tree or graph. Kernel and engine
   are compiled with the same ids and must still agree exactly. *)
let prop_kernel_custom_ids (gk, n, gseed, pseed) =
  let rng = Mis_util.Splitmix.of_seed (gseed + 7) in
  let g =
    if gk mod 2 = 0 then Helpers.random_tree ~seed:gseed ~n
    else Helpers.random_graph ~seed:gseed ~n ~p:0.2
  in
  let view =
    View.restrict ~nodes:(Array.init n (fun _ -> Mis_util.Splitmix.float rng < 0.7)) g
  in
  let ids = permutation rng n in
  let offset = 1 + (gseed * 1_000_003) in
  let ids = Array.map (fun i -> offset + i) ids in
  let kernel = Kernel.create ~ids view in
  let engine = Runtime.Engine.create ~ids view in
  let plan = Rand_plan.make pseed in
  let sink, evs = Trace.memory () in
  let o = Fairmis.Luby.run_distributed_on ~tracer:sink engine plan in
  let luby_ok =
    outcome_matches ~name:"kernel-luby-ids" view o (evs ())
      (Fairmis.Luby.run_kernel_on kernel plan)
  in
  let engine = Runtime.Engine.create ~ids view in
  let sink, evs = Trace.memory () in
  let o = Fairmis.Fair_tree_distributed.run_on ~tracer:sink engine plan in
  luby_ok
  && outcome_matches ~name:"kernel-fairtree-ids" view o (evs ())
       (Fairmis.Fair_tree_distributed.run_kernel_on kernel plan)

(* Slot order is the kernel's own: it numbers slots in BFS order, so
   relabelling the nodes renumbers them. Nothing it computes may depend
   on that. The graph is relabelled by a random permutation [perm] (node
   [u] becomes [perm.(u)], node and edge masks carried along, adjacency
   rebuilt in the new order) with [~ids] keeping every node's original
   id, and the outcome must be the original one moved through [perm].
   Values in [0, 3] make Luby ties common, so the (value, id) tie-break
   is on the line too; gamma 1 runs the FairTree round simulation. Odd
   [pseed]s add a random edge mask on top of the view. *)
let prop_kernel_relabel (gk, n, gseed, pseed) =
  let view = view_of gk ~n ~gseed in
  let g = View.graph view in
  let n = View.n view in
  let rng = Mis_util.Splitmix.of_seed (pseed + 101) in
  let view =
    if pseed land 1 = 0 then view
    else
      View.restrict ?nodes:(View.node_mask view)
        ~edges:
          (Array.init (Mis_graph.Graph.m g) (fun _ ->
               Mis_util.Splitmix.float rng < 0.7))
        g
  in
  let perm = permutation rng n in
  let move a =
    let b = Array.copy a in
    Array.iteri (fun u x -> b.(perm.(u)) <- x) a;
    b
  in
  let relabelled =
    View.restrict
      ?nodes:(Option.map move (View.node_mask view))
      ?edges:(View.edge_mask view)
      (Mis_graph.Graph.of_edge_array ~n
         (Array.map (fun (u, v) -> (perm.(u), perm.(v))) (Mis_graph.Graph.edges g)))
  in
  let kernel = Kernel.create view in
  let kernel' = Kernel.create ~ids:(move (Array.init n Fun.id)) relabelled in
  let plan = Rand_plan.make pseed in
  let coarse ~round ~node =
    Rand_plan.node_value plan ~stage:Rand_plan.Stage.luby_main ~round ~node
    land 3
  in
  let coins =
    Rand_plan.
      { Kernel.cut = edge_bits plan ~stage:Stage.fair_tree_cut;
        bit1 = node_bits plan ~stage:Stage.fair_tree_s1;
        bit2 = node_bits plan ~stage:Stage.fair_tree_s2;
        bit3 = node_bits plan ~stage:Stage.fair_tree_s3;
        luby_value = coarse }
  in
  List.for_all
    (fun run ->
      let (o : Kernel.outcome) = run kernel in
      { o with
        Kernel.output = move o.Kernel.output;
        decided = move o.Kernel.decided;
        decide_round = move o.Kernel.decide_round }
      = run kernel')
    [ (fun k -> Fairmis.Luby.run_kernel_on k plan);
      Kernel.luby ~value_of:coarse;
      (fun k -> Fairmis.Fair_tree_distributed.run_kernel_on k plan);
      Kernel.fair_tree ~gamma:1 ~coins ]

(* [Kernel.create ~ids] checks ids like the engine, with its messages. *)
let test_kernel_ids_rejected () =
  let view = View.full (Helpers.random_tree ~seed:3 ~n:5) in
  let masked = View.restrict ~nodes:[| true; true; false; true; true |] (View.graph view) in
  Alcotest.check_raises "wrong length" (Invalid_argument "Runtime.run: ids length")
    (fun () -> ignore (Kernel.create ~ids:[| 0; 1; 2; 3 |] view));
  Alcotest.check_raises "duplicate active ids"
    (Invalid_argument "Runtime.run: duplicate ids") (fun () ->
      ignore (Kernel.create ~ids:[| 4; 9; 2; 9; 0 |] view));
  (* An inactive node may repeat an active node's id, as on the engine. *)
  ignore (Kernel.create ~ids:[| 4; 9; 9; 7; 0 |] masked);
  ignore (Runtime.Engine.create ~ids:[| 4; 9; 9; 7; 0 |] masked)

(* [Kernel.of_slots] on the path 5 - 9 - 12 runs like [Kernel.create]
   on the same graph with the same ids, reading its arrays in place (so
   they may run long), and rejects each malformed argument. *)
let test_kernel_of_slots () =
  let ids = [| 5; 9; 12 |] in
  let off = [| 0; 1; 3; 4; 99 |] and adj = [| 1; 0; 2; 1; -7 |] in
  let view = View.full (Mis_graph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ]) in
  let plan = Rand_plan.make 4 in
  List.iter
    (fun (name, run) ->
      Alcotest.(check bool) name true
        (run (Kernel.of_slots ~ids ~off ~adj) = run (Kernel.create ~ids view)))
    [ ("luby", fun k -> Fairmis.Luby.run_kernel_on k plan);
      ("fairtree", fun k -> Fairmis.Fair_tree_distributed.run_kernel_on k plan) ];
  let rejects what ~ids ~off ~adj =
    Alcotest.check_raises what (Invalid_argument ("Kernel.of_slots: " ^ what))
      (fun () -> ignore (Kernel.of_slots ~ids ~off ~adj))
  in
  rejects "ids not ascending" ~ids:[| 5; 5; 12 |] ~off ~adj;
  rejects "offsets" ~ids ~off:[| 0; 1; 3 |] ~adj;
  rejects "offsets" ~ids ~off:[| 1; 1; 3; 4 |] ~adj;
  rejects "offsets" ~ids ~off:[| 0; 1; 0; 4 |] ~adj;
  rejects "offsets" ~ids ~off:[| 0; 1; 3; 6 |] ~adj;
  rejects "adjacency entry" ~ids ~off ~adj:[| 1; 0; 3; 1 |];
  rejects "adjacency entry" ~ids ~off ~adj:[| 1; 1; 2; 1 |]

(* [Kernel.reload] takes one [of_slots] kernel from a single node to the
   path 5 - 9 - 12 (its scratch outgrown), down to the edge 3 - 8 and
   past a rejected CSR, which leaves it as it was: every run equals one
   on a fresh kernel over the same arrays. A shared kernel is refused. *)
let test_kernel_reload () =
  let plan = Rand_plan.make 4 in
  let runs k =
    ( Fairmis.Luby.run_kernel_on k plan,
      Fairmis.Fair_tree_distributed.run_kernel_on k plan )
  in
  let kernel = Kernel.of_slots ~ids:[| 7 |] ~off:[| 0; 0 |] ~adj:[||] in
  ignore (runs kernel);
  let path = ([| 5; 9; 12 |], [| 0; 1; 3; 4 |], [| 1; 0; 2; 1 |]) in
  let edge = ([| 3; 8 |], [| 0; 1; 2 |], [| 1; 0 |]) in
  List.iter
    (fun (name, (ids, off, adj)) ->
      Kernel.reload kernel ~ids ~off ~adj;
      Alcotest.(check bool) name true
        (runs kernel = runs (Kernel.of_slots ~ids ~off ~adj)))
    [ ("grown", path); ("shrunk", edge) ];
  Alcotest.check_raises "bad CSR" (Invalid_argument "Kernel.of_slots: offsets")
    (fun () -> Kernel.reload kernel ~ids:[| 1; 2; 3 |] ~off:[| 0; 1 |] ~adj:[| 1 |]);
  let ids, off, adj = edge in
  Alcotest.(check bool) "unchanged after a rejected reload" true
    (runs kernel = runs (Kernel.of_slots ~ids ~off ~adj));
  Alcotest.check_raises "shared kernel"
    (Invalid_argument "Kernel.reload: not from of_slots") (fun () ->
      Kernel.reload
        (Kernel.create (View.full (Helpers.random_tree ~seed:1 ~n:3)))
        ~ids ~off ~adj)

(* Residency: a kernel keeps the slot maps and adjacency its sweeps read
   and one scratch that serves both programs (three int arrays and a
   byte per slot, plus FairTree's byte per CSR entry); under the
   identity ids its slot-to-id array is the slot-to-index one. That
   reads 7.4 words per node here after both programs, 8.4 with a
   separate id array; it read 14.5 with a scratch of each kind, and 41.1
   when the kernel compiled the engine's indexes too and kept a word per
   flag. The bound keeps the margin 22.4 gave over 14.5 (x1.55). *)
let test_kernel_footprint () =
  let view = View.full (Mis_workload.Trees.complete_kary ~branch:5 ~depth:5) in
  let words = Helpers.kernel_words_per_node view (Kernel.create view) in
  if words > 11.4 then
    Alcotest.failf "kernel holds %.1f words per node, above 11.4" words

(* What each program adds to a fresh kernel, word for word: Luby's runs
   leave one scratch of four slot arrays (three int arrays, a byte per
   slot), its record and free-list cell. FairTree's runs then add nothing
   on a tree, whose stages run as forward slot sweeps, and exactly the
   queue path's byte per CSR entry on a graph with cycles (a grid); a
   tree whose runs fell back to the queue path would add its entry bytes
   too. Neither allocates the four int arrays of the round simulation
   (4n), which the default gamma never runs here. *)
let test_kernel_footprint_per_program () =
  let plan = Rand_plan.make 1 in
  let check name view ~entry_bytes =
    let n = View.n view in
    let kernel = Kernel.create view in
    let words () = Obj.reachable_words (Obj.repr kernel) in
    let base = words () in
    let scratch = (3 * (n + 1)) + (n / 8) + 32 in
    for _ = 1 to 2 do
      ignore (Fairmis.Luby.run_kernel_on kernel plan)
    done;
    let luby = words () - base in
    if luby > scratch then
      Alcotest.failf "%s: Luby runs added %d words, above one lean scratch (%d)"
        name luby scratch;
    for _ = 1 to 2 do
      ignore (Fairmis.Fair_tree_distributed.run_kernel_on kernel plan)
    done;
    let added = words () - base - luby in
    let bytes, slack =
      if entry_bytes then ((2 * Mis_graph.Graph.m (View.graph view) / 8) + 2, 2)
      else (0, 0)
    in
    if added > bytes || added < bytes - slack then
      Alcotest.failf "%s: FairTree runs added %d words, expected %d" name added
        bytes
  in
  check "5-ary tree"
    (View.full (Mis_workload.Trees.complete_kary ~branch:5 ~depth:5))
    ~entry_bytes:false;
  check "4x100 grid" (view_of 2 ~n:400 ~gseed:0) ~entry_bytes:true

(* Outcome and scratch reuse: one kernel and one outcome serve a run of
   each program in turn, with Luby and FairTree cut off early, at the
   default and at small gammas (whose components run the round
   simulation), so every run starts on the other program's (or another
   cutoff's) scratch and on the previous run's outcome, first filled with
   garbage. Each must return the outcome it was given, equal to a fresh
   run on a fresh kernel in every field, including [rounds] and
   [simulated]. *)
let prop_kernel_reuse (gk, n, gseed, pseed) =
  let view = view_of gk ~n ~gseed in
  let plan = Rand_plan.make pseed in
  let kernel = Kernel.create view in
  let into = Kernel.make_outcome kernel in
  Array.fill into.Kernel.output 0 (View.n view) true;
  Array.fill into.Kernel.decided 0 (View.n view) true;
  Array.fill into.Kernel.decide_round 0 (View.n view) 99;
  into.Kernel.rounds <- 7;
  into.Kernel.simulated <- 5;
  let luby ?max_rounds ?into k =
    Kernel.luby ?max_rounds ?into
      ~value_of:(Rand_plan.node_values plan ~stage:Rand_plan.Stage.luby_main)
      k
  in
  let fair_tree ?max_rounds ?gamma ?into k =
    match gamma with
    | None -> Fairmis.Fair_tree_distributed.run_kernel_on ?into k plan
    | Some gamma ->
      Kernel.fair_tree ?max_rounds ?into ~gamma
        ~coins:
          Rand_plan.
            { Kernel.cut = edge_bits plan ~stage:Stage.fair_tree_cut;
              bit1 = node_bits plan ~stage:Stage.fair_tree_s1;
              bit2 = node_bits plan ~stage:Stage.fair_tree_s2;
              bit3 = node_bits plan ~stage:Stage.fair_tree_s3;
              luby_value = node_values plan ~stage:Stage.fair_tree_luby }
        k
  in
  List.for_all
    (fun (run : ?into:Kernel.outcome -> Kernel.t -> Kernel.outcome) ->
      let o = run ~into kernel in
      o == into && o = run (Kernel.create view))
    [ (fun ?into k -> fair_tree ~gamma:1 ?into k);
      (fun ?into k -> luby ?into k);
      (fun ?into k -> fair_tree ?into k);
      (fun ?into k -> luby ~max_rounds:2 ?into k);
      (fun ?into k -> fair_tree ~gamma:1 ~max_rounds:10 ?into k);
      (fun ?into k -> luby ~max_rounds:4 ?into k);
      (fun ?into k -> fair_tree ~gamma:2 ?into k);
      (fun ?into k -> fair_tree ~gamma:1 ~max_rounds:14 ?into k);
      (fun ?into k -> luby ?into k) ]

(* An outcome longer than the kernel is written on its first [n]
   entries only; a shorter one is rejected before anything runs. *)
let test_kernel_into_lengths () =
  let view = View.full (Helpers.random_tree ~seed:4 ~n:12) in
  let kernel = Kernel.create view and plan = Rand_plan.make 3 in
  let fresh = Fairmis.Luby.run_kernel_on kernel plan in
  let long =
    { Kernel.output = Array.make 15 true; decided = Array.make 15 true;
      decide_round = Array.make 15 99; rounds = 0; simulated = 0 }
  in
  ignore (Fairmis.Luby.run_kernel_on ~into:long kernel plan);
  Alcotest.(check Helpers.bool_array) "prefix = fresh output"
    fresh.Kernel.output (Array.sub long.Kernel.output 0 12);
  Alcotest.(check (array int)) "prefix = fresh decide rounds"
    fresh.Kernel.decide_round (Array.sub long.Kernel.decide_round 0 12);
  Alcotest.(check (array int)) "tail untouched" [| 99; 99; 99 |]
    (Array.sub long.Kernel.decide_round 12 3);
  let short = { long with Kernel.decided = Array.make 11 false } in
  Alcotest.check_raises "short outcome"
    (Invalid_argument "Kernel: outcome shorter than the kernel") (fun () ->
      ignore (Fairmis.Fair_tree_distributed.run_kernel_on ~into:short kernel plan))

(* [Luby.run_stats] must match the original list-based centralized loop
   exactly, MIS and phase count. The oracle below is that code,
   verbatim. *)
let run_stats_list_oracle ?(stage = Fairmis.Rand_plan.Stage.luby_main) view
    plan =
  let n = View.n view in
  let in_mis = Array.make n false in
  let alive = Array.make n false in
  View.iter_active view (fun u -> alive.(u) <- true);
  let live = ref (View.active_nodes view) in
  let value = Array.make n 0 in
  let phase = ref 0 in
  let beats (v1, id1) (v2, id2) = v1 < v2 || (v1 = v2 && id1 < id2) in
  while Array.length !live > 0 do
    let nodes = !live in
    Array.iter
      (fun u ->
        value.(u) <- Rand_plan.node_value plan ~stage ~round:!phase ~node:u)
      nodes;
    let winners =
      Array.to_list nodes
      |> List.filter (fun u ->
             let mine = (value.(u), u) in
             let beaten = ref false in
             View.iter_adj view u (fun w ->
                 if alive.(w) && not (beats mine (value.(w), w)) then
                   beaten := true);
             not !beaten)
    in
    List.iter
      (fun u ->
        in_mis.(u) <- true;
        alive.(u) <- false;
        View.iter_adj view u (fun w -> alive.(w) <- false))
      winners;
    live :=
      Array.of_list (List.filter (fun u -> alive.(u)) (Array.to_list nodes));
    incr phase
  done;
  (in_mis, !phase)

let prop_run_stats_inplace (gk, n, gseed, pseed) =
  let view = view_of gk ~n ~gseed in
  let plan = Rand_plan.make pseed in
  let oracle_mis, oracle_phases = run_stats_list_oracle view plan in
  let mis, stats = Fairmis.Luby.run_stats view plan in
  mis = oracle_mis && stats.Fairmis.Luby.phases = oracle_phases

(* run_stats on a masked view: the kernel compiles only the active
   subset, as the FairBipart and ColorMIS fallbacks need. *)
let prop_run_stats_inplace_masked (gk, n, gseed, pseed) =
  let g =
    match gk with
    | 0 -> Helpers.random_tree ~seed:gseed ~n
    | _ -> Helpers.random_graph ~seed:gseed ~n ~p:0.2
  in
  let rng = Mis_util.Splitmix.of_seed (pseed + 17) in
  let keep = Array.init n (fun _ -> Mis_util.Splitmix.float rng < 0.7) in
  let view = View.restrict ~nodes:keep g in
  let plan = Rand_plan.make pseed in
  let oracle_mis, oracle_phases = run_stats_list_oracle view plan in
  let mis, stats = Fairmis.Luby.run_stats view plan in
  mis = oracle_mis && stats.Fairmis.Luby.phases = oracle_phases

(* One compiled runner shared by the whole trial pool at 1 and 4
   domains must reproduce the joins of a fresh kernel per trial
   ([Luby.run]) exactly. *)
let test_trials_kernel_domain_invariant () =
  let n = 60 in
  let view = View.full (Helpers.random_tree ~seed:9 ~n) in
  let joins domains run =
    Mis_obs.Fairness.joins
      (Mis_stats.Montecarlo.run
         { Mis_stats.Montecarlo.trials = 48; base_seed = 5;
           domains = Some domains }
         ~n run)
  in
  let reference =
    joins 1 (fun ~seed -> Fairmis.Luby.run view (Rand_plan.make seed))
  in
  let shared = Mis_exp.Runners.luby.Mis_exp.Runners.run view in
  Alcotest.check Helpers.int_array "shared kernel(1) = fresh kernels" reference
    (joins 1 shared);
  Alcotest.check Helpers.int_array "shared kernel(4) = fresh kernels" reference
    (joins 4 shared);
  (* The buffered path: one outcome per domain, overwritten trial after
     trial. *)
  let buffered =
    Option.get Mis_exp.Runners.luby.Mis_exp.Runners.buffered view
  in
  List.iter
    (fun domains ->
      Alcotest.check Helpers.int_array
        (Printf.sprintf "per-domain outcomes(%d) = fresh kernels" domains)
        reference
        (Mis_obs.Fairness.joins
           (Mis_stats.Montecarlo.run_buffered
              { Mis_stats.Montecarlo.trials = 48; base_seed = 5;
                domains = Some domains }
              ~n buffered)))
    [ 1; 4 ]

(* MD5 of [Runners.measure] join counts (comma-separated, node order),
   200 trials from base seed 1, recorded before the fixed-arity coins,
   the int-only cut loop and the one-pass MIS check went in: every coin
   and every join must stay bit-identical across those rewrites, at any
   FAIRMIS_DOMAINS. *)
let test_join_counts_pinned () =
  let cfg = { (Mis_exp.Config.load ()) with trials = 200; seed = 1 } in
  let digest view runner =
    let e = Mis_exp.Runners.measure cfg view runner in
    let t = float_of_int (Mis_stats.Empirical.trials e) in
    Mis_stats.Empirical.frequencies e
    |> Array.map (fun f -> string_of_int (int_of_float (Float.round (f *. t))) ^ ",")
    |> Array.to_list |> String.concat "" |> Digest.string |> Digest.to_hex
  in
  List.iter
    (fun (name, g, luby, fair_tree) ->
      let view = View.full g in
      Alcotest.(check string) (name ^ " luby") luby
        (digest view Mis_exp.Runners.luby);
      Alcotest.(check string) (name ^ " fairtree") fair_tree
        (digest view Mis_exp.Runners.fair_tree))
    [ ( "nyc_like_small ~seed:1", Mis_workload.Real_world.nyc_like_small ~seed:1,
        "8a92794bbe6c3d9d45bf45d7da36631f", "acd90d600e0e680f7a03173fba5d8612" );
      ( "5-ary tree, n = 3906", Mis_workload.Trees.complete_kary ~branch:5 ~depth:5,
        "04feb478c8ced968eaf52f00b6c61459", "abb5059c2c723604e7461a46828a851b" ) ]

let suite =
  [ ( "sim.kernel",
      [ Helpers.qtest ~count:60 "kernel = engine (luby)" arb_case
          prop_kernel_luby;
        Helpers.qtest ~count:30 "kernel = engine (fairtree)" arb_case
          prop_kernel_fair_tree;
        test_kernel_fair_tree_small_gamma;
        Alcotest.test_case "simulated counts round-simulated participants"
          `Quick test_kernel_simulated_counts;
        Helpers.qtest ~count:30 "kernel = engine (luby, max_rounds cutoff)"
          arb_case prop_kernel_luby_cutoff;
        Helpers.qtest ~count:40 "kernel = engine (custom ids, masked)" arb_case
          prop_kernel_custom_ids;
        Helpers.qtest ~count:60 "kernel outcome invariant under relabelling"
          arb_case prop_kernel_relabel;
        Alcotest.test_case "kernel rejects bad ids like the engine" `Quick
          test_kernel_ids_rejected;
        Alcotest.test_case "of_slots runs a slot CSR and checks it" `Quick
          test_kernel_of_slots;
        Alcotest.test_case "reload reuses one of_slots kernel" `Quick
          test_kernel_reload;
        Alcotest.test_case "kernel footprint <= 11.4 words per node" `Quick
          test_kernel_footprint;
        Alcotest.test_case "scratch footprint per program" `Quick
          test_kernel_footprint_per_program;
        Helpers.qtest ~count:60 "run into a reused outcome = fresh run" arb_case
          prop_kernel_reuse;
        Alcotest.test_case "outcome lengths" `Quick test_kernel_into_lengths;
        Helpers.qtest ~count:60 "run_stats in-place = list oracle" arb_case
          prop_run_stats_inplace;
        Helpers.qtest ~count:40 "run_stats in-place = list oracle (masked)"
          arb_case prop_run_stats_inplace_masked;
        Alcotest.test_case "trials kernel joins, domains 1 and 4" `Quick
          test_trials_kernel_domain_invariant;
        Alcotest.test_case "join counts pinned across commits" `Quick
          test_join_counts_pinned ] ) ]
