(* Unit and property tests for lib/graph. *)

module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Traverse = Mis_graph.Traverse
module Check = Mis_graph.Check
module Mst = Mis_graph.Mst
module Geometry = Mis_graph.Geometry
module Rooted = Mis_graph.Rooted
module Splitmix = Mis_util.Splitmix

let path4 = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ]
let triangle = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ]

let test_of_edges_validation () =
  let expect_invalid name edges n =
    match Graph.of_edges ~n edges with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "self loop" [ (1, 1) ] 3;
  expect_invalid "duplicate" [ (0, 1); (1, 0) ] 3;
  expect_invalid "out of range" [ (0, 3) ] 3

(* The three rejections keep their messages: the stamp pass over the
   finished rows must see a duplicate in either orientation and anywhere
   in the input, and a range or self-loop fault wins over a duplicate. *)
let test_of_edges_messages () =
  let expect msg n edges =
    match Graph.of_edges ~n edges with
    | exception Invalid_argument m -> Alcotest.(check string) msg msg m
    | _ -> Alcotest.failf "expected %s" msg
  in
  let range = "Graph.of_edges: endpoint out of range" in
  let loop = "Graph.of_edges: self-loop" in
  let dup = "Graph.of_edges: duplicate edge" in
  expect range 3 [ (0, 3) ];
  expect range 3 [ (-1, 2) ];
  expect loop 3 [ (0, 1); (2, 2) ];
  expect dup 3 [ (0, 1); (0, 1) ];
  expect dup 4 [ (1, 0); (2, 3); (0, 2); (0, 1) ];
  expect dup 5 [ (4, 3); (0, 1); (2, 3); (3, 4) ];
  expect range 3 [ (0, 1); (1, 0); (0, 5) ];
  expect loop 3 [ (0, 1); (1, 0); (1, 1) ];
  (* A graph with no duplicate still builds after the stamp pass. *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  Alcotest.(check int) "m" 4 (Graph.m g)

let test_degrees () =
  Alcotest.(check int) "deg 0" 1 (Graph.degree path4 0);
  Alcotest.(check int) "deg 1" 2 (Graph.degree path4 1);
  Alcotest.(check int) "max degree" 2 (Graph.max_degree path4);
  Alcotest.(check int) "n" 4 (Graph.n path4);
  Alcotest.(check int) "m" 3 (Graph.m path4)

let test_mem_edge () =
  Alcotest.(check bool) "mem" true (Graph.mem_edge path4 1 2);
  Alcotest.(check bool) "not mem" false (Graph.mem_edge path4 0 2);
  Alcotest.(check bool) "oob" false (Graph.mem_edge path4 0 9)

let test_edge_ids () =
  let g = Graph.of_edges ~n:3 [ (2, 1); (0, 1) ] in
  Alcotest.(check (pair int int)) "normalized" (1, 2) (Graph.edge_endpoints g 0);
  let seen = ref [] in
  Graph.iter_adj_e g 1 (fun v e -> seen := (v, e) :: !seen);
  Alcotest.(check int) "two incident arcs" 2 (List.length !seen)

let test_neighbors () =
  let ns = Graph.neighbors path4 1 in
  Array.sort compare ns;
  Alcotest.check Helpers.int_array "neighbors" [| 0; 2 |] ns

let test_view_masks () =
  let nodes = [| true; true; false; true |] in
  let v = View.restrict ~nodes path4 in
  Alcotest.(check int) "active count" 3 (View.count_active v);
  Alcotest.(check int) "degree of 1 without node 2" 1 (View.degree v 1);
  Alcotest.(check bool) "edge (1,2) unusable" false (View.usable_edge v 1);
  let edges = [| false; true; true |] in
  let v2 = View.restrict ~edges path4 in
  Alcotest.(check int) "degree of 0 with edge 0 cut" 0 (View.degree v2 0)

let test_view_mask_length () =
  Alcotest.check_raises "bad node mask"
    (Invalid_argument "View.restrict: node mask length") (fun () ->
      ignore (View.restrict ~nodes:[| true |] path4))

let test_bfs () =
  let dist = Traverse.bfs_from (View.full path4) 0 in
  Alcotest.check Helpers.int_array "distances" [| 0; 1; 2; 3 |] dist;
  let dist2 = Traverse.bfs_from (View.full path4) 2 in
  Alcotest.check Helpers.int_array "from the middle" [| 2; 1; 0; 1 |] dist2

let test_bfs_masked () =
  let v = View.restrict ~edges:[| true; false; true |] path4 in
  let dist = Traverse.bfs_from v 0 in
  Alcotest.check Helpers.int_array "cut path" [| 0; 1; -1; -1 |] dist

let test_components () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (2, 3) ] in
  let label, count = Traverse.components (View.full g) in
  Alcotest.(check int) "three components" 3 count;
  Alcotest.(check bool) "0 and 1 together" true (label.(0) = label.(1));
  Alcotest.(check bool) "1 and 2 apart" true (label.(1) <> label.(2));
  let members = Traverse.component_members label count in
  let sizes = Array.map Array.length members in
  Array.sort compare sizes;
  Alcotest.check Helpers.int_array "sizes" [| 1; 2; 2 |] sizes

let test_diameter () =
  Alcotest.(check int) "path diameter" 3
    (Traverse.diameter_exact (View.full path4));
  Alcotest.(check int) "triangle diameter" 1
    (Traverse.diameter_exact (View.full triangle))

let test_tree_diameters () =
  (* Per component: a path of 4 beside a star of 5 reads the path's 3. *)
  let forest = Graph.of_edges ~n:9 [ (0, 1); (1, 2); (2, 3); (4, 5); (4, 6); (4, 7); (4, 8) ] in
  Alcotest.(check int) "forest diameter" 3 (Traverse.diameter_exact (View.full forest));
  let star = View.restrict ~nodes:(Array.init 9 (fun u -> u >= 4)) forest in
  Alcotest.(check int) "star alone" 2 (Traverse.diameter_exact star)

let test_predicates () =
  Alcotest.(check bool) "path is tree" true (Traverse.is_tree (View.full path4));
  Alcotest.(check bool) "triangle not tree" false
    (Traverse.is_tree (View.full triangle));
  Alcotest.(check bool) "triangle not forest" false
    (Traverse.is_forest (View.full triangle));
  let forest = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "forest" true (Traverse.is_forest (View.full forest));
  Alcotest.(check bool) "forest not a tree" false
    (Traverse.is_tree (View.full forest))

let test_bipartition () =
  (match Traverse.bipartition (View.full path4) with
  | Some side -> Alcotest.(check bool) "alternates" true (side.(0) <> side.(1))
  | None -> Alcotest.fail "path is bipartite");
  Alcotest.(check bool) "triangle not bipartite" true
    (Traverse.bipartition (View.full triangle) = None)

let test_check_oracles () =
  let v = View.full path4 in
  Alcotest.(check bool) "valid mis" true
    (Helpers.is_mis v [| true; false; true; false |]);
  Alcotest.(check bool) "0 alone not maximal" false
    (Helpers.is_mis v [| true; false; false; false |]);
  Alcotest.(check bool) "adjacent not independent" false
    (Helpers.is_independent v [| true; true; false; false |]);
  Alcotest.(check bool) "proper coloring" true
    (Check.is_proper_coloring v [| 0; 1; 0; 1 |]);
  Alcotest.(check bool) "uncolored rejected" false
    (Check.is_proper_coloring v [| 0; 1; 0; -1 |]);
  Alcotest.(check int) "count colors" 2 (Check.count_colors [| 0; 1; 0; -1 |])

(* Brute-force MST weight for cross-checking Kruskal. *)
let brute_force_mst_weight ~n edges =
  (* Try all subsets of edges of size n - c; too slow in general, so use
     Prim's algorithm as an independent implementation instead. *)
  let adj = Array.make n [] in
  Array.iter
    (fun (w, u, v) ->
      adj.(u) <- (w, v) :: adj.(u);
      adj.(v) <- (w, u) :: adj.(v))
    edges;
  let visited = Array.make n false in
  let total = ref 0. in
  for start = 0 to n - 1 do
    if not visited.(start) then begin
      let heap = Mis_util.Heap.create () in
      let push_edges u =
        List.iter
          (fun (w, v) ->
            if not visited.(v) then
              Mis_util.Heap.push heap ~priority:w ((u * n) + v))
          adj.(u)
      in
      visited.(start) <- true;
      push_edges start;
      let continue = ref true in
      while !continue do
        if Mis_util.Heap.is_empty heap then continue := false
        else begin
          let w, code = Mis_util.Heap.pop_min heap in
          let v = code mod n in
          if not visited.(v) then begin
            visited.(v) <- true;
            total := !total +. w;
            push_edges v
          end
        end
      done
    end
  done;
  !total

let prop_kruskal_matches_prim =
  Helpers.qtest ~count:60 "kruskal weight matches prim"
    QCheck.(pair (int_range 2 25) Helpers.arb_seed)
    (fun (n, seed) ->
      let rng = Splitmix.of_seed seed in
      let edges = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Splitmix.float rng < 0.3 then
            edges := (Splitmix.float rng, i, j) :: !edges
        done
      done;
      let edges = Array.of_list !edges in
      let kruskal_w = Geometry_oracle.spanning_forest_weight ~n edges in
      let prim_w = brute_force_mst_weight ~n edges in
      abs_float (kruskal_w -. prim_w) < 1e-9)

let prop_kruskal_forest =
  Helpers.qtest ~count:60 "kruskal output is a spanning forest"
    QCheck.(pair (int_range 2 25) Helpers.arb_seed)
    (fun (n, seed) ->
      let rng = Splitmix.of_seed seed in
      let edges = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Splitmix.float rng < 0.3 then
            edges := (Splitmix.float rng, i, j) :: !edges
        done
      done;
      let all = Array.of_list !edges in
      let forest = Geometry_oracle.kruskal ~n (Array.copy all) in
      let g = Graph.of_edges ~n forest in
      let orig = Graph.of_edges ~n (List.map (fun (_, u, v) -> (u, v)) (Array.to_list all)) in
      let _, orig_comps = Traverse.components (View.full orig) in
      let _, forest_comps = Traverse.components (View.full g) in
      Traverse.is_forest (View.full g) && orig_comps = forest_comps)

let prop_prim_matches_kruskal_weight =
  Helpers.qtest ~count:60 "prim weight matches kruskal"
    QCheck.(pair (int_range 2 25) Helpers.arb_seed)
    (fun (n, seed) ->
      let rng = Splitmix.of_seed seed in
      let edges = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Splitmix.float rng < 0.3 then
            edges := (Splitmix.float rng, i, j) :: !edges
        done
      done;
      let edges = Array.of_list !edges in
      let weight forest =
        List.fold_left
          (fun acc (u, v) ->
            let w = ref infinity in
            Array.iter
              (fun (ew, eu, ev) ->
                if (eu, ev) = (min u v, max u v) || (eu, ev) = (u, v) || (eu, ev) = (v, u)
                then w := Float.min !w ew)
              edges;
            acc +. !w)
          0. forest
      in
      let prim = Mst.prim ~n (Geometry_oracle.to_flat edges) in
      let kruskal_w = Geometry_oracle.spanning_forest_weight ~n (Array.copy edges) in
      abs_float (weight prim -. kruskal_w) < 1e-6)

let test_prim_colocated_points_form_star () =
  (* Zero-length ties: Prim attaches every co-located point to the first
     one reached, giving the WAP-trace hub structure. *)
  let k = 10 in
  (* Points 1..k co-located; point 0 at distance 1 from all of them. *)
  let edges = ref [] in
  for i = 1 to k do
    edges := (1.0, 0, i) :: !edges;
    for j = i + 1 to k do
      edges := (0.0, i, j) :: !edges
    done
  done;
  let forest = Mst.prim ~n:(k + 1) (Geometry_oracle.to_flat (Array.of_list !edges)) in
  let g = Graph.of_edges ~n:(k + 1) forest in
  Alcotest.(check bool) "spanning tree" true (Traverse.is_tree (View.full g));
  (* The first co-located point reached hangs off node 0 and becomes the
     hub of its k-1 co-located peers: degree k. *)
  Alcotest.(check int) "hub degree" k (Graph.max_degree g)

(* Edge sets, not counts: the sorted (i, j, d) triples equal the
   brute-force pairs. Snapped cases put points on a small integer grid,
   so co-located points and distances equal to the radius (1, 2, 5 on
   axis or 3-4-5 offsets) occur. Each case also checks nesting: edges at
   [radius] filtered to [d <= r'] are exactly the edges at [r' <= radius],
   which is what lets one edge array answer every smaller probe radius. *)
let prop_threshold_edges =
  Helpers.qtest ~count:80 "threshold edges match brute force"
    QCheck.(triple (int_range 1 60) Helpers.arb_seed bool)
    (fun (n, seed, snapped) ->
      let rng = Splitmix.of_seed seed in
      let coord () =
        if snapped then float_of_int (Splitmix.int rng 9)
        else Splitmix.float rng *. 10.
      in
      let points = Array.init n (fun _ -> { Geometry.x = coord (); y = coord () }) in
      let triples radius =
        List.sort compare
          (Array.to_list
             (Array.map (fun (d, i, j) -> (i, j, d))
                (Geometry_oracle.of_flat (Geometry.threshold_edges points ~radius))))
      in
      let brute radius =
        let acc = ref [] in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            let d = Geometry_oracle.dist points.(i) points.(j) in
            if d <= radius then acc := (i, j, d) :: !acc
          done
        done;
        List.sort compare !acc
      in
      let radius = if snapped then 5. else 2.5 in
      let smaller = if snapped then [ 1.; 2.; sqrt 2.; 4.5 ] else [ 0.4; 1.25; 2.2 ] in
      let at_radius = triples radius in
      at_radius = brute radius
      && List.for_all
           (fun r' ->
             triples r' = brute r'
             && List.filter (fun (_, _, d) -> d <= r') at_radius = triples r')
           smaller)

(* Order, not only sets: the flat scan and the CSR Prim reproduce the
   tuple oracles edge for edge, and Prim's ties depend on that order.
   Clouds are clustered city-like samples; even seeds snap to a 2-unit
   grid, so co-located points and zero-length edges occur. Radii run
   log-uniformly from 1e-6 to about twice the 12,000 x 9,000 extent's
   diagonal. *)
let arb_cloud = QCheck.(triple Helpers.arb_seed (int_range 0 300) (float_range 0. 1.))

let cloud seed n u =
  let params =
    { Mis_workload.Geo.city with
      Mis_workload.Geo.clusters = 6; sigma = 40.;
      snap = (if seed mod 2 = 0 then 2. else 0.) }
  in
  (Mis_workload.Geo.sample (Splitmix.of_seed seed) params ~n, 1e-6 *. (3e10 ** u))

let scanned points ~radius =
  let seen = ref [] in
  Geometry.iter_threshold points ~radius (fun d i j -> seen := (d, i, j) :: !seen);
  Array.of_list (List.rev !seen)

let prop_threshold_order =
  Helpers.qtest ~count:100 "threshold scan order = tuple oracle" arb_cloud
    (fun (seed, n, u) ->
      let points, radius = cloud seed n u in
      let oracle = Geometry_oracle.threshold_edges points ~radius in
      Geometry_oracle.of_flat (Geometry.threshold_edges points ~radius) = oracle
      && scanned points ~radius = oracle)

let prop_prim_order =
  Helpers.qtest ~count:100 "CSR prim = list-adjacency oracle" arb_cloud
    (fun (seed, n, u) ->
      let points, radius = cloud seed n u in
      let e = Geometry.threshold_edges points ~radius in
      Mst.prim ~n e = Geometry_oracle.prim ~n (Geometry_oracle.of_flat e))

(* Any edge order, not only the scan's: endpoints in either order, weights
   from {0, 1, 2} so most pushes tie, self-loops and parallel edges. *)
let prop_prim_order_any_edges =
  Helpers.qtest ~count:100 "CSR prim = oracle on tied edges"
    QCheck.(pair (int_range 1 40) Helpers.arb_seed)
    (fun (n, seed) ->
      let rng = Splitmix.of_seed seed in
      let edges =
        Array.init (Splitmix.int rng (3 * n))
          (fun _ ->
            let u = Splitmix.int rng n and v = Splitmix.int rng n in
            (float_of_int (Splitmix.int rng 3), u, v))
      in
      Mst.prim ~n (Geometry_oracle.to_flat edges) = Geometry_oracle.prim ~n edges)

(* Cells of side 1e-6 over a 12,000 x 9,000 extent: keys reach 1.2e10 by
   9e9, more than a packed [x * stride + y] key holds in 63 bits. Pairs
   are planted at 0, 4e-7 (often across a cell border) and 2e-6 apart. *)
let test_threshold_tiny_radius_wide_cloud () =
  let rng = Splitmix.of_seed 7 in
  let points =
    Array.concat
      [ [| { Geometry.x = 0.; y = 0. }; { Geometry.x = 12000.; y = 9000. } |];
        Array.concat
          (List.init 100 (fun _ ->
               let p =
                 { Geometry.x = Splitmix.float rng *. 12000.;
                   y = Splitmix.float rng *. 9000. }
               in
               [| p; p;
                  { p with Geometry.x = p.Geometry.x +. 4e-7 };
                  { p with Geometry.y = p.Geometry.y -. 4e-7 };
                  { p with Geometry.x = p.Geometry.x +. 2e-6 } |])) ]
  in
  let radius = 1e-6 in
  let oracle = Geometry_oracle.threshold_edges points ~radius in
  Alcotest.(check int) "planted pairs" 600 (Array.length oracle);
  Alcotest.(check bool) "edges = oracle" true
    (Geometry_oracle.of_flat (Geometry.threshold_edges points ~radius) = oracle);
  Alcotest.(check bool) "scan = oracle" true (scanned points ~radius = oracle);
  let n = Array.length points in
  Alcotest.(check bool) "prim = oracle" true
    (Mst.prim ~n (Geometry.threshold_edges points ~radius)
     = Geometry_oracle.prim ~n oracle)

let test_bounding_box () =
  let points =
    [| { Geometry.x = 1.; y = 5. }; { Geometry.x = -2.; y = 3. } |]
  in
  let lo, hi = Geometry_oracle.bounding_box points in
  Alcotest.(check (float 1e-9)) "lo.x" (-2.) lo.Geometry.x;
  Alcotest.(check (float 1e-9)) "hi.y" 5. hi.Geometry.y

(* Rooted *)

let test_rooted_of_tree () =
  let t = Rooted.of_tree path4 ~root:1 in
  Alcotest.(check int) "root parent" (-1) t.Rooted.parent.(1);
  Alcotest.(check int) "child of 1" 1 t.Rooted.parent.(0);
  Alcotest.(check int) "grandparent of 3" 1 t.Rooted.parent.(t.Rooted.parent.(3));
  Alcotest.(check int) "one root" 1
    (Array.fold_left (fun c p -> if p = -1 then c + 1 else c) 0 t.Rooted.parent)

let test_rooted_of_tree_rejects () =
  Alcotest.(check bool) "triangle rejected" true
    (match Rooted.of_tree triangle ~root:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_rooted_cycle_detection () =
  Alcotest.(check bool) "cycle rejected" true
    (match Rooted.of_parents [| 1; 2; 0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "self parent rejected" true
    (match Rooted.of_parents [| 0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_rooted_children () =
  let t = Rooted.of_parents [| -1; 0; 0; 1 |] in
  let kids = Rooted.children t in
  Array.sort compare kids.(0);
  Alcotest.check Helpers.int_array "children of root" [| 1; 2 |] kids.(0);
  Alcotest.check Helpers.int_array "children of 1" [| 3 |] kids.(1)

let test_rooted_restrict () =
  let t = Rooted.of_parents [| -1; 0; 1; 2 |] in
  let r = Rooted.restrict t ~keep:[| true; false; true; true |] in
  Alcotest.(check int) "2 becomes root" (-1) r.Rooted.parent.(2);
  Alcotest.(check int) "3 keeps parent" 2 r.Rooted.parent.(3)

let test_rooted_to_graph () =
  let t = Rooted.of_parents [| -1; 0; 0 |] in
  let g = Rooted.to_graph t in
  Alcotest.(check int) "edges" 2 (Graph.m g);
  Alcotest.(check bool) "tree" true (Traverse.is_tree (View.full g))

let prop_rooted_roundtrip =
  Helpers.qtest "rooting a random tree preserves the edge set"
    QCheck.(pair (int_range 1 40) Helpers.arb_seed)
    (fun (n, seed) ->
      let g = Helpers.random_tree ~seed ~n in
      let t = Rooted.of_tree g ~root:0 in
      let g2 = Rooted.to_graph t in
      Graph.m g = Graph.m g2
      && Array.for_all
           (fun (u, v) -> Graph.mem_edge g2 u v)
           (Graph.edges g))

(* --- of_parents: direct CSR tree construction --------------------------- *)

let test_of_parents_validation () =
  let expect_invalid name parents =
    match Graph.of_parents parents with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "empty" [||];
  expect_invalid "root marker missing" [| 0 |];
  expect_invalid "self parent" [| -1; 1 |];
  expect_invalid "forward parent" [| -1; 2; 0 |];
  expect_invalid "negative parent" [| -1; 0; -3 |]

let prop_of_parents_matches_edge_list =
  (* of_parents promises the CSR layout of of_edge_array on the edge
     list [(1, p1); (2, p2); ...] — same node ids, edge ids, adjacency
     and arc order, just without materializing the edges. *)
  Helpers.qtest ~count:60 "of_parents = of_edge_array on attachment trees"
    QCheck.(pair (int_range 1 80) Helpers.arb_seed)
    (fun (n, seed) ->
      let rng = Splitmix.of_seed seed in
      let parents = Array.init n (fun i -> if i = 0 then -1 else Splitmix.int rng i) in
      let direct = Graph.of_parents parents in
      let reference =
        Graph.of_edge_array ~n
          (Array.init (n - 1) (fun e -> (e + 1, parents.(e + 1))))
      in
      Graph.n direct = Graph.n reference
      && Graph.m direct = Graph.m reference
      && Graph.edges direct = Graph.edges reference
      && List.for_all
           (fun u ->
             Graph.neighbors direct u = Graph.neighbors reference u
             &&
             let arcs g =
               let acc = ref [] in
               Graph.iter_adj_e g u (fun v e -> acc := (v, e) :: !acc);
               !acc
             in
             arcs direct = arcs reference)
           (List.init n Fun.id)
      && Traverse.is_tree (View.full direct))

let suite =
  [ ( "graph.core",
      [ Alcotest.test_case "of_edges validation" `Quick test_of_edges_validation;
        Alcotest.test_case "of_edges messages" `Quick test_of_edges_messages;
        Alcotest.test_case "of_parents validation" `Quick
          test_of_parents_validation;
        prop_of_parents_matches_edge_list;
        Alcotest.test_case "degrees" `Quick test_degrees;
        Alcotest.test_case "mem_edge" `Quick test_mem_edge;
        Alcotest.test_case "edge ids" `Quick test_edge_ids;
        Alcotest.test_case "neighbors" `Quick test_neighbors ] );
    ( "graph.view",
      [ Alcotest.test_case "masks" `Quick test_view_masks;
        Alcotest.test_case "mask length" `Quick test_view_mask_length ] );
    ( "graph.traverse",
      [ Alcotest.test_case "bfs" `Quick test_bfs;
        Alcotest.test_case "bfs masked" `Quick test_bfs_masked;
        Alcotest.test_case "components" `Quick test_components;
        Alcotest.test_case "diameter" `Quick test_diameter;
        Alcotest.test_case "tree diameters" `Quick test_tree_diameters;
        Alcotest.test_case "predicates" `Quick test_predicates;
        Alcotest.test_case "bipartition" `Quick test_bipartition ] );
    ("graph.check", [ Alcotest.test_case "oracles" `Quick test_check_oracles ]);
    ( "graph.mst",
      [ prop_kruskal_matches_prim; prop_kruskal_forest;
        prop_prim_matches_kruskal_weight; prop_prim_order; prop_prim_order_any_edges;
        Alcotest.test_case "prim: co-located points form a hub" `Quick
          test_prim_colocated_points_form_star ] );
    ( "graph.geometry",
      [ prop_threshold_edges; prop_threshold_order;
        Alcotest.test_case "tiny radius, wide cloud" `Quick
          test_threshold_tiny_radius_wide_cloud;
        Alcotest.test_case "bounding box" `Quick test_bounding_box ] );
    ( "graph.rooted",
      [ Alcotest.test_case "of_tree" `Quick test_rooted_of_tree;
        Alcotest.test_case "of_tree rejects non-tree" `Quick test_rooted_of_tree_rejects;
        Alcotest.test_case "cycle detection" `Quick test_rooted_cycle_detection;
        Alcotest.test_case "children" `Quick test_rooted_children;
        Alcotest.test_case "restrict" `Quick test_rooted_restrict;
        Alcotest.test_case "to_graph" `Quick test_rooted_to_graph;
        prop_rooted_roundtrip ] ) ]
