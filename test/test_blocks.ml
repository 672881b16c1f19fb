(* Tests for Construct_Block, FairBipart, distributed colorings, ColorMIS
   and the centralized references. *)

module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Check = Mis_graph.Check
module Splitmix = Mis_util.Splitmix
module Cb = Fairmis.Construct_block
module Fair_bipart = Fairmis.Fair_bipart
module Coloring = Fairmis.Distributed_coloring
module Color_mis = Fairmis.Color_mis
module Centralized = Fairmis.Centralized
module Rand_plan = Fairmis.Rand_plan

let plan seed = Rand_plan.make seed

let block_config ~seed ~gamma ~flip ~payload_bound =
  let p = plan seed in
  { Cb.gamma;
    radius_of = (fun u -> Rand_plan.node_radius p ~stage:90 ~node:u ~p:0.5 ~gamma);
    payload_of = (fun u -> Rand_plan.node_int p ~stage:91 ~node:u ~bound:payload_bound);
    flip_per_hop = flip }

(* Construct_Block *)

(* The faithful simulation of the bounded-message variant the paper
   adopts, kept as the oracle of [Cb.run]'s ball flood: gamma superrounds
   in which every node ships its whole leader table [L[0..gamma],
   B[0..gamma]] to its neighbors. O(n * gamma^2) work. *)
let run_tables view (cfg : Cb.config) =
  let n = View.n view in
  let gamma = cfg.Cb.gamma in
  let slots = gamma + 1 in
  (* Leader tables: l_table.(v).(i) = largest id seen with i range
     remaining; b_table the corresponding payload. *)
  let l_table = Array.make_matrix n slots (-1) in
  let b_table = Array.make_matrix n slots (-1) in
  View.iter_active view (fun v ->
      let r = cfg.Cb.radius_of v in
      if r < 0 || r > gamma then invalid_arg "Construct_block: radius_of";
      l_table.(v).(r) <- v;
      b_table.(v).(r) <- cfg.Cb.payload_of v);
  for _superround = 1 to gamma do
    let l_old = Array.map Array.copy l_table in
    let b_old = Array.map Array.copy b_table in
    View.iter_active view (fun v ->
        View.iter_adj view v (fun u ->
            (* v receives u's table: each entry drops one range unit and is
               merged at the lower slot if its id is larger. *)
            for i = 1 to gamma do
              let id = l_old.(u).(i) in
              if id > l_table.(v).(i - 1) then begin
                l_table.(v).(i - 1) <- id;
                let p = b_old.(u).(i) in
                b_table.(v).(i - 1) <-
                  (if cfg.Cb.flip_per_hop && p >= 0 then 1 - p else p)
              end
            done))
  done;
  let leader = Array.make n (-1) in
  let in_block = Array.make n false in
  let payload = Array.make n (-1) in
  View.iter_active view (fun v ->
      let best = ref (-1) in
      for i = 0 to gamma do
        if l_table.(v).(i) > !best then best := l_table.(v).(i)
      done;
      (* The leader may appear in several slots; the block rule reads the
         highest one (shortest path = largest remaining range). *)
      let highest = ref (-1) in
      for i = 0 to gamma do
        if l_table.(v).(i) = !best then highest := i
      done;
      leader.(v) <- !best;
      in_block.(v) <- !best >= 0 && !highest > 0;
      payload.(v) <- b_table.(v).(!highest));
  { Cb.leader; in_block; payload; rounds = gamma * (gamma + 1) }

let prop_block_fast_matches_tables =
  Helpers.qtest ~count:60 "construct_block: ball-flood engine = leader tables"
    QCheck.(
      quad (int_range 1 25) (int_range 0 6) Helpers.arb_seed QCheck.bool)
    (fun (n, gamma, seed, flip) ->
      let g = Helpers.random_graph ~seed:(seed + 1) ~n ~p:0.2 in
      let v = View.full g in
      let cfg = block_config ~seed ~gamma ~flip ~payload_bound:2 in
      let a = Cb.run v cfg and b = run_tables v cfg in
      a.Cb.leader = b.Cb.leader
      && a.Cb.in_block = b.Cb.in_block
      && a.Cb.payload = b.Cb.payload)

let prop_block_neighbors_same_leader =
  Helpers.qtest ~count:80 "construct_block: Lemma 12(ii) on random graphs"
    QCheck.(pair (int_range 2 40) Helpers.arb_seed)
    (fun (n, seed) ->
      let g = Helpers.random_graph ~seed:(seed + 3) ~n ~p:0.15 in
      let v = View.full g in
      let gamma = 2 * 6 in
      let cfg = block_config ~seed ~gamma ~flip:false ~payload_bound:2 in
      let r = Cb.run v cfg in
      (* Adjacent non-boundary nodes share a leader. *)
      let ok = ref true in
      Array.iter
        (fun (u, w) ->
          if r.Cb.in_block.(u) && r.Cb.in_block.(w)
             && r.Cb.leader.(u) <> r.Cb.leader.(w)
          then ok := false)
        (Graph.edges g);
      !ok)

let test_block_self_leader () =
  (* gamma = 0 forces radius 0 for everyone: all boundary, own leader. *)
  let g = Mis_workload.Trees.path 5 in
  let v = View.full g in
  let cfg =
    { Cb.gamma = 0; radius_of = (fun _ -> 0); payload_of = (fun _ -> 1);
      flip_per_hop = false }
  in
  let r = Cb.run v cfg in
  Alcotest.check Helpers.int_array "own leader" [| 0; 1; 2; 3; 4 |] r.Cb.leader;
  Alcotest.(check bool) "nobody in a block" true
    (Array.for_all not r.Cb.in_block)

let test_block_full_radius () =
  (* Everyone broadcasts to the whole path: node 4 wins, all in its block
     except those exactly at distance r. *)
  let g = Mis_workload.Trees.path 5 in
  let v = View.full g in
  let cfg =
    { Cb.gamma = 10; radius_of = (fun _ -> 10); payload_of = (fun u -> u mod 2);
      flip_per_hop = false }
  in
  let r = Cb.run v cfg in
  Alcotest.check Helpers.int_array "leader 4 everywhere" [| 4; 4; 4; 4; 4 |]
    r.Cb.leader;
  Alcotest.(check bool) "everyone in block" true (Array.for_all (fun b -> b) r.Cb.in_block);
  Alcotest.(check int) "payload carried" 0 r.Cb.payload.(0)

let test_block_flip_parity () =
  let g = Mis_workload.Trees.path 4 in
  let v = View.full g in
  let cfg =
    { Cb.gamma = 10; radius_of = (fun _ -> 10); payload_of = (fun _ -> 1);
      flip_per_hop = true }
  in
  let r = Cb.run v cfg in
  (* Leader 3 has payload 1; parity alternates with distance. *)
  Alcotest.check Helpers.int_array "alternating payload" [| 0; 1; 0; 1 |] r.Cb.payload

let prop_block_join_probability =
  (* Lemma 12(i): each vertex joins a block with prob >= p(1-p^gamma)^n.
     Statistical check on a fixed small graph. *)
  Helpers.qtest ~count:1 "construct_block: block-join probability bound"
    QCheck.unit
    (fun () ->
      let g = Helpers.random_graph ~seed:11 ~n:20 ~p:0.15 in
      let v = View.full g in
      let gamma = 10 in
      let trials = 3000 in
      let joins = ref 0 in
      for seed = 0 to trials - 1 do
        let cfg = block_config ~seed ~gamma ~flip:false ~payload_bound:2 in
        let r = Cb.run v cfg in
        Array.iter (fun b -> if b then incr joins) r.Cb.in_block
      done;
      let freq = float_of_int !joins /. float_of_int (trials * 20) in
      let bound = 0.5 *. ((1. -. (0.5 ** float_of_int gamma)) ** 20.) in
      freq >= bound -. 0.03)

(* FairBipart *)

let prop_fair_bipart_valid_on_bipartite =
  Helpers.qtest ~count:80 "fair_bipart: valid MIS, no violations on bipartite"
    QCheck.(triple (int_range 2 20) Helpers.arb_seed Helpers.arb_seed)
    (fun (half, gseed, seed) ->
      let g =
        Mis_workload.Bipartite.random_connected (Splitmix.of_seed gseed)
          ~left:half ~right:half ~p:0.15
      in
      let v = View.full g in
      let mis, trace = Fair_bipart.run_traced v (plan seed) in
      Helpers.is_mis v mis && trace.Fair_bipart.violations_removed = 0)

let prop_fair_bipart_valid_on_any_graph =
  Helpers.qtest ~count:60 "fair_bipart: still valid on non-bipartite graphs"
    QCheck.(triple (int_range 1 30) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.25 in
      let v = View.full g in
      Helpers.is_mis v (Fair_bipart.run v (plan seed)))

let prop_fair_bipart_trees =
  Helpers.qtest ~count:60 "fair_bipart: valid on trees (they are bipartite)"
    QCheck.(triple (int_range 1 50) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      let mis, trace = Fair_bipart.run_traced v (plan seed) in
      Helpers.is_mis v mis && trace.Fair_bipart.violations_removed = 0)

let prop_fair_bipart_distributed_matches_fast =
  Helpers.qtest ~count:50 "fair_bipart: distributed program = fast engine"
    QCheck.(triple (int_range 1 12) Helpers.arb_seed Helpers.arb_seed)
    (fun (half, gseed, seed) ->
      let g =
        Mis_workload.Bipartite.random_connected (Splitmix.of_seed gseed)
          ~left:half ~right:half ~p:0.15
      in
      let v = View.full g in
      let p = plan seed in
      let fast = Fair_bipart.run v p in
      let outcome = Fairmis.Fair_bipart_distributed.run v p in
      Array.for_all (fun b -> b) outcome.Mis_sim.Runtime.decided
      && fast = outcome.Mis_sim.Runtime.output)

let prop_fair_bipart_distributed_trees =
  Helpers.qtest ~count:40 "fair_bipart: engines agree on trees"
    QCheck.(triple (int_range 1 20) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      let p = plan seed in
      let fast = Fair_bipart.run v p in
      let outcome = Fairmis.Fair_bipart_distributed.run v p in
      fast = outcome.Mis_sim.Runtime.output)

let prop_fair_bipart_distributed_small_gamma =
  Helpers.qtest ~count:40 "fair_bipart: engines agree with tiny gamma"
    QCheck.(triple (int_range 2 20) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      let p = plan seed in
      let fast = Fair_bipart.run ~gamma:2 v p in
      let outcome = Fairmis.Fair_bipart_distributed.run ~gamma:2 v p in
      fast = outcome.Mis_sim.Runtime.output)

let test_fair_bipart_even_cycle () =
  let g = Mis_workload.Bipartite.even_cycle 16 in
  let v = View.full g in
  for seed = 0 to 20 do
    Helpers.check_mis ~name:"even cycle" v (Fair_bipart.run v (plan seed))
  done

let test_fair_bipart_gamma_default () =
  Alcotest.(check int) "2 lg 1024" 20 (Fair_bipart.gamma_default ~n:1024)

(* Distributed colorings *)

let prop_greedy_coloring_proper =
  Helpers.qtest "coloring: randomized greedy is proper"
    QCheck.(triple (int_range 1 40) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.25 in
      let v = View.full g in
      let out = Coloring.randomized_greedy v (plan seed) in
      Check.is_proper_coloring v out.Coloring.colors
      && Array.for_all (fun c -> c < out.Coloring.palette) out.Coloring.colors)

let prop_greedy_coloring_deg_plus_one =
  Helpers.qtest ~count:60 "coloring: node color <= its degree"
    QCheck.(triple (int_range 1 40) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.25 in
      let v = View.full g in
      let out = Coloring.randomized_greedy v (plan seed) in
      let ok = ref true in
      View.iter_active v (fun u ->
          if out.Coloring.colors.(u) > View.degree v u then ok := false);
      !ok)

let test_h_partition_grid () =
  let g = Mis_workload.Bipartite.grid ~width:10 ~height:10 in
  let layer, layers, core = Coloring.h_partition_partial (View.full g) ~degree_bound:3 in
  Alcotest.(check bool) "grid peels at bound 3" true (Array.for_all not core);
  Alcotest.(check bool) "layers assigned" true
    (Array.for_all (fun l -> l >= 0 && l < layers) layer)

let test_h_partition_clique_stuck () =
  let g = Mis_workload.Special.clique 10 in
  let _, _, core = Coloring.h_partition_partial (View.full g) ~degree_bound:3 in
  Alcotest.(check bool) "clique at bound 3 is stuck" true (Array.exists Fun.id core)

let prop_planar_coloring =
  Helpers.qtest ~count:30 "coloring: planar families get <= 8 proper colors"
    QCheck.(pair (int_range 2 8) Helpers.arb_seed)
    (fun (w, seed) ->
      let g = Mis_workload.Planar.triangular_grid ~width:(w + 1) ~height:(w + 1) in
      let v = View.full g in
      let out = Coloring.planar v (plan seed) in
      Check.is_proper_coloring v out.Coloring.colors
      && Check.count_colors out.Coloring.colors <= 8)

let prop_outerplanar_coloring =
  Helpers.qtest ~count:40 "coloring: outerplanar graphs peel at bound 7"
    QCheck.(pair (int_range 3 60) Helpers.arb_seed)
    (fun (n, seed) ->
      let g = Mis_workload.Planar.random_outerplanar (Splitmix.of_seed seed) ~n in
      let v = View.full g in
      let out = Coloring.planar v (plan (seed + 1)) in
      Check.is_proper_coloring v out.Coloring.colors)

(* Hybrid coloring: peelable regions stay low-color even with a dense core. *)

let tree_plus_clique =
  lazy
    (let tree = Mis_workload.Trees.alternating ~branch:8 ~depth:4 in
     let nt = Graph.n tree in
     let clique = 12 in
     let edges =
       Array.to_list (Graph.edges tree)
       @ (let acc = ref [ (nt - 1, nt) ] in
          for i = 0 to clique - 1 do
            for j = i + 1 to clique - 1 do
              acc := (nt + i, nt + j) :: !acc
            done
          done;
          !acc)
     in
     (Graph.of_edges ~n:(nt + clique) edges, nt))

let prop_hybrid_coloring_proper =
  Helpers.qtest ~count:30 "coloring: hybrid is proper on tree+clique"
    Helpers.arb_seed
    (fun seed ->
      let g, _ = Lazy.force tree_plus_clique in
      let v = View.full g in
      let out = Coloring.hybrid v (plan seed) ~degree_bound:2 in
      Check.is_proper_coloring v out.Coloring.colors)

let test_hybrid_low_colors_outside_core () =
  let g, nt = Lazy.force tree_plus_clique in
  let v = View.full g in
  let out = Coloring.hybrid v (plan 3) ~degree_bound:2 in
  (* Tree nodes (peeled at bound 2) use at most 3 colors. *)
  for u = 0 to nt - 1 do
    if out.Coloring.colors.(u) > 2 then
      Alcotest.failf "tree node %d got color %d" u out.Coloring.colors.(u)
  done

let test_h_partition_partial_core () =
  let g, nt = Lazy.force tree_plus_clique in
  let v = View.full g in
  let _, _, core = Coloring.h_partition_partial v ~degree_bound:2 in
  (* The stuck core is exactly the clique. *)
  for u = 0 to Graph.n g - 1 do
    if core.(u) <> (u >= nt) then Alcotest.failf "core mask wrong at %d" u
  done

(* ColorMIS *)

let prop_color_mis_valid =
  Helpers.qtest ~count:60 "color_mis: valid MIS with greedy coloring"
    QCheck.(triple (int_range 1 30) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.25 in
      let v = View.full g in
      let coloring = Coloring.randomized_greedy v (plan (seed + 1)) in
      let mis =
        Color_mis.run v ~coloring:coloring.Coloring.colors
          ~k:coloring.Coloring.palette (plan seed)
      in
      Helpers.is_mis v mis)

let prop_color_mis_adaptive_valid =
  Helpers.qtest ~count:60 "color_mis: adaptive variant yields a valid MIS"
    QCheck.(triple (int_range 1 30) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.25 in
      let v = View.full g in
      let coloring = Coloring.randomized_greedy v (plan (seed + 1)) in
      let mis, _ =
        Color_mis.run_adaptive v ~coloring:coloring.Coloring.colors (plan seed)
      in
      Helpers.is_mis v mis)

let prop_color_mis_planar_valid =
  Helpers.qtest ~count:30 "color_mis: valid MIS on planar graphs"
    QCheck.(pair (int_range 2 8) Helpers.arb_seed)
    (fun (w, seed) ->
      let g = Mis_workload.Planar.triangular_grid ~width:(w + 1) ~height:(w + 1) in
      let v = View.full g in
      let mis, _ = Color_mis.run_planar v (plan seed) in
      Helpers.is_mis v mis)

let prop_color_mis_distributed_matches_fast =
  Helpers.qtest ~count:50 "color_mis: distributed program = fast engine"
    QCheck.(triple (int_range 1 20) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.25 in
      let v = View.full g in
      let p = plan seed in
      (* A fixed deterministic proper coloring shared by both engines. *)
      let coloring = Coloring.randomized_greedy v (plan (seed + 1)) in
      let colors = coloring.Coloring.colors in
      let k = coloring.Coloring.palette in
      let fast = Color_mis.run v ~coloring:colors ~k p in
      let outcome =
        Fairmis.Color_mis_distributed.run v ~coloring:colors ~k p
      in
      Array.for_all (fun b -> b) outcome.Mis_sim.Runtime.decided
      && fast = outcome.Mis_sim.Runtime.output)

(* MD5 over 50 seeds of each run's output bits, [rounds] and
   [fallback_nodes], recorded while the Luby fallback still ran as a
   centralized array loop. The fallback fires on every one of these runs,
   so the pins hold the kernel-backed [Luby.complete] to the same sets,
   phases and counts. *)
let digest_runs run =
  let b = Buffer.create 4096 in
  for seed = 0 to 49 do
    let mis, rounds, fallback = run (plan seed) in
    Array.iter (fun x -> Buffer.add_char b (if x then '1' else '0')) mis;
    Buffer.add_string b (Printf.sprintf ":%d:%d;" rounds fallback)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_fair_bipart_fallback_pinned () =
  let v = View.full (Mis_workload.Bipartite.grid ~width:16 ~height:16) in
  Alcotest.(check string) "16x16 grid, 50 seeds"
    "334124c4cfeceabcda51121d6b97b773"
    (digest_runs (fun p ->
         let mis, tr = Fair_bipart.run_traced v p in
         (mis, tr.Fair_bipart.rounds, tr.Fair_bipart.fallback_nodes)))

let test_color_mis_fallback_pinned () =
  let v =
    View.full (Mis_workload.Planar.triangular_grid ~width:18 ~height:18)
  in
  Alcotest.(check string) "18x18 triangular grid, 50 seeds"
    "1126efd5356d6c9856b580857de28421"
    (digest_runs (fun p ->
         let mis, tr = Color_mis.run_planar v p in
         (mis, tr.Color_mis.rounds, tr.Color_mis.fallback_nodes)))

let test_color_mis_k_validation () =
  let g = Mis_workload.Trees.path 3 in
  Alcotest.(check bool) "k=0 rejected" true
    (match Color_mis.run (View.full g) ~coloring:[| 0; 0; 0 |] ~k:0 (plan 1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Centralized references *)

let prop_greedy_permutation_valid =
  Helpers.qtest "centralized: permutation greedy yields a valid MIS"
    QCheck.(triple (int_range 1 40) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.2 in
      let v = View.full g in
      Helpers.is_mis v (Centralized.greedy_random_permutation v (Splitmix.of_seed seed)))

let prop_fair_bipartite_centralized =
  Helpers.qtest ~count:80 "centralized: A' is a valid MIS on bipartite graphs"
    QCheck.(triple (int_range 1 20) Helpers.arb_seed Helpers.arb_seed)
    (fun (half, gseed, seed) ->
      let g =
        Mis_workload.Bipartite.random_connected (Splitmix.of_seed gseed)
          ~left:half ~right:half ~p:0.2
      in
      let v = View.full g in
      match Helpers.fair_bipartite v (Splitmix.of_seed seed) with
      | None -> false
      | Some mis -> Helpers.is_mis v mis)

let test_fair_bipartite_rejects_odd_cycle () =
  let g = Mis_workload.Planar.cycle 5 in
  Alcotest.(check bool) "odd cycle" true
    (Helpers.fair_bipartite (View.full g) (Splitmix.of_seed 1) = None)

let test_greedy_in_order () =
  let g = Mis_workload.Trees.path 4 in
  let v = View.full g in
  let mis = Helpers.greedy_in_order v ~order:[| 0; 1; 2; 3 |] in
  Alcotest.check Helpers.bool_array "greedy 0..3" [| true; false; true; false |] mis;
  (* The permutation baseline is greedy along its seeded order. *)
  List.iter
    (fun seed ->
      let order = Mis_util.Ids.random_permutation (Splitmix.of_seed seed) ~n:4 in
      Alcotest.check Helpers.bool_array (Printf.sprintf "seed %d" seed)
        (Helpers.greedy_in_order v ~order)
        (Centralized.greedy_random_permutation v (Splitmix.of_seed seed)))
    [ 1; 2; 3; 4; 5 ]

let suite =
  [ ( "algo.construct_block",
      [ prop_block_fast_matches_tables;
        prop_block_neighbors_same_leader;
        Alcotest.test_case "radius 0: all boundary" `Quick test_block_self_leader;
        Alcotest.test_case "full radius" `Quick test_block_full_radius;
        Alcotest.test_case "flip parity" `Quick test_block_flip_parity;
        prop_block_join_probability ] );
    ( "algo.fair_bipart",
      [ prop_fair_bipart_valid_on_bipartite;
        prop_fair_bipart_valid_on_any_graph;
        prop_fair_bipart_trees;
        Alcotest.test_case "even cycle" `Quick test_fair_bipart_even_cycle;
        Alcotest.test_case "gamma default" `Quick test_fair_bipart_gamma_default;
        prop_fair_bipart_distributed_matches_fast;
        prop_fair_bipart_distributed_trees;
        prop_fair_bipart_distributed_small_gamma;
        Alcotest.test_case "fallback pinned across commits" `Quick
          test_fair_bipart_fallback_pinned ] );
    ( "algo.coloring",
      [ prop_greedy_coloring_proper;
        prop_greedy_coloring_deg_plus_one;
        Alcotest.test_case "h-partition on grid" `Quick test_h_partition_grid;
        Alcotest.test_case "h-partition stuck on clique" `Quick
          test_h_partition_clique_stuck;
        prop_planar_coloring;
        prop_outerplanar_coloring;
        prop_hybrid_coloring_proper;
        Alcotest.test_case "hybrid: low colors outside core" `Quick
          test_hybrid_low_colors_outside_core;
        Alcotest.test_case "h_partition_partial core" `Quick
          test_h_partition_partial_core ] );
    ( "algo.color_mis",
      [ prop_color_mis_valid;
        prop_color_mis_adaptive_valid;
        prop_color_mis_planar_valid;
        prop_color_mis_distributed_matches_fast;
        Alcotest.test_case "k validation" `Quick test_color_mis_k_validation;
        Alcotest.test_case "fallback pinned across commits" `Quick
          test_color_mis_fallback_pinned ] );
    ( "algo.centralized",
      [ prop_greedy_permutation_valid;
        prop_fair_bipartite_centralized;
        Alcotest.test_case "odd cycle rejected" `Quick
          test_fair_bipartite_rejects_odd_cycle;
        Alcotest.test_case "greedy in order" `Quick test_greedy_in_order ] ) ]
