(* Tests for the topology generators. *)

module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Traverse = Mis_graph.Traverse
module Trees = Mis_workload.Trees
module Bipartite = Mis_workload.Bipartite
module Planar = Mis_workload.Planar
module Special = Mis_workload.Special
module Geo = Mis_workload.Geo
module Real_world = Mis_workload.Real_world
module Splitmix = Mis_util.Splitmix

let is_tree g = Traverse.is_tree (View.full g)
let is_bipartite g = Traverse.bipartition (View.full g) <> None

let test_paper_tree_sizes () =
  (* The exact node counts of Table I. *)
  let binary = Trees.complete_kary ~branch:2 ~depth:10 in
  Alcotest.(check int) "binary |V|" 2047 (Graph.n binary);
  Alcotest.(check int) "binary |E|" 2046 (Graph.m binary);
  let five = Trees.complete_kary ~branch:5 ~depth:5 in
  Alcotest.(check int) "5-ary |V|" 3906 (Graph.n five);
  let alt10 = Trees.alternating ~branch:10 ~depth:5 in
  Alcotest.(check int) "alternating B=10 |V|" 1221 (Graph.n alt10);
  let alt30 = Trees.alternating ~branch:30 ~depth:3 in
  Alcotest.(check int) "alternating B=30 |V|" 961 (Graph.n alt30);
  Alcotest.(check int) "alternating B=30 |E|" 960 (Graph.m alt30)

let test_tree_generators_are_trees () =
  let cases =
    [ ("binary", Trees.complete_kary ~branch:2 ~depth:6);
      ("alternating", Trees.alternating ~branch:4 ~depth:4);
      ("path", Trees.path 17);
      ("star", Trees.star 12);
      ("spider", Trees.spider ~legs:5 ~leg_length:4);
      ("caterpillar", Trees.caterpillar ~spine:6 ~legs_per_node:3) ]
  in
  List.iter
    (fun (name, g) ->
      if not (is_tree g) then Alcotest.failf "%s is not a tree" name)
    cases

let test_star_shape () =
  let g = Trees.star 10 in
  Alcotest.(check int) "hub degree" 9 (Graph.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Graph.degree g 5)

let test_spider_size () =
  let g = Trees.spider ~legs:3 ~leg_length:4 in
  Alcotest.(check int) "n" 13 (Graph.n g);
  Alcotest.(check int) "hub degree" 3 (Graph.degree g 0)

let test_caterpillar_size () =
  let g = Trees.caterpillar ~spine:4 ~legs_per_node:2 in
  Alcotest.(check int) "n" 12 (Graph.n g)

let prop_random_trees =
  Helpers.qtest "random tree generators yield trees"
    QCheck.(pair (int_range 1 80) Helpers.arb_seed)
    (fun (n, seed) ->
      let rng () = Splitmix.of_seed seed in
      is_tree (Trees.random_prufer (rng ()) ~n)
      && is_tree (Trees.preferential_attachment (rng ()) ~n)
      && is_tree (Trees.random_attachment_xl (rng ()) ~n))

let prop_prufer_varies =
  Helpers.qtest ~count:20 "prufer trees vary with the seed"
    (QCheck.int_range 0 1000)
    (fun seed ->
      let g1 = Trees.random_prufer (Splitmix.of_seed seed) ~n:30 in
      let g2 = Trees.random_prufer (Splitmix.of_seed (seed + 1)) ~n:30 in
      (* Equality of edge sets is unlikely; just require both valid. *)
      is_tree g1 && is_tree g2)

let test_bipartite_generators () =
  let cases =
    [ ("even cycle", Bipartite.even_cycle 12);
      ("complete bipartite", Bipartite.complete_bipartite ~left:3 ~right:5);
      ("grid", Bipartite.grid ~width:5 ~height:4);
      ("hypercube", Bipartite.hypercube ~dim:4);
      ("double star", Bipartite.double_star ~left_leaves:4 ~right_leaves:7) ]
  in
  List.iter
    (fun (name, g) ->
      if not (is_bipartite g) then Alcotest.failf "%s not bipartite" name)
    cases

let test_bipartite_sizes () =
  Alcotest.(check int) "K_{3,5} edges" 15
    (Graph.m (Bipartite.complete_bipartite ~left:3 ~right:5));
  Alcotest.(check int) "grid edges" (4 * 4 + 5 * 3)
    (Graph.m (Bipartite.grid ~width:5 ~height:4));
  Alcotest.(check int) "Q4 edges" 32 (Graph.m (Bipartite.hypercube ~dim:4));
  Alcotest.(check int) "double star n" 13
    (Graph.n (Bipartite.double_star ~left_leaves:4 ~right_leaves:7))

let test_even_cycle_rejects_odd () =
  Alcotest.(check bool) "odd rejected" true
    (match Bipartite.even_cycle 7 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_random_bipartite =
  Helpers.qtest ~count:50 "random bipartite is connected and bipartite"
    QCheck.(triple (int_range 1 20) (int_range 1 20) Helpers.arb_seed)
    (fun (left, right, seed) ->
      let g =
        Bipartite.random_connected (Splitmix.of_seed seed) ~left ~right ~p:0.1
      in
      is_bipartite g && snd (Traverse.components (View.full g)) = 1)

let test_planar_generators () =
  Alcotest.(check int) "wheel n" 9 (Graph.n (Planar.wheel 9));
  Alcotest.(check int) "wheel hub degree" 8 (Graph.degree (Planar.wheel 9) 0);
  Alcotest.(check int) "cycle m" 8 (Graph.m (Planar.cycle 8));
  let tri = Planar.triangular_grid ~width:4 ~height:3 in
  Alcotest.(check bool) "triangular grid has odd cycles" false (is_bipartite tri);
  let fan = Planar.fan_triangulation 8 in
  Alcotest.(check int) "fan m" (7 + 6) (Graph.m fan)

let prop_outerplanar =
  Helpers.qtest ~count:50 "random outerplanar is connected with sane density"
    QCheck.(pair (int_range 3 60) Helpers.arb_seed)
    (fun (n, seed) ->
      let g = Planar.random_outerplanar (Splitmix.of_seed seed) ~n in
      snd (Traverse.components (View.full g)) = 1 && Graph.m g <= (2 * n) - 3)

let test_cone_structure () =
  let k = 5 in
  let g = Special.cone ~k in
  Alcotest.(check int) "n = 2k+1" 11 (Graph.n g);
  (* The apex is u_0; the far side S is u_{k+1} .. u_2k. *)
  let apex = 0 in
  Alcotest.(check int) "apex degree" k (Graph.degree g apex);
  (* Near-side clique nodes: 2k-1 clique neighbors + apex. *)
  Alcotest.(check int) "near-side degree" (2 * k) (Graph.degree g 1);
  (* Far-side clique nodes: only the clique. *)
  let far = Array.init k (fun i -> k + 1 + i) in
  Alcotest.(check int) "far side size" k (Array.length far);
  Array.iter
    (fun u ->
      Alcotest.(check int) "far-side degree" ((2 * k) - 1) (Graph.degree g u);
      Alcotest.(check bool) "not adjacent to apex" false
        (Graph.mem_edge g apex u))
    far;
  (* Degree ratio is constant (paper Sec. VIII remark). *)
  Alcotest.(check bool) "max/min degree ratio around 2" true
    (float_of_int (Graph.max_degree g) /. float_of_int (Graph.degree g 0) <= 2.1)

let test_clique () =
  let g = Special.clique 6 in
  Alcotest.(check int) "m" 15 (Graph.m g);
  Alcotest.(check int) "degree" 5 (Graph.degree g 3)

let test_poisson_mean () =
  let rng = Splitmix.of_seed 31 in
  let n = 20_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Geo.poisson rng ~mean:3.0
  done;
  let mean = float_of_int !total /. float_of_int n in
  if abs_float (mean -. 3.0) > 0.1 then Alcotest.failf "poisson mean %f" mean

let test_gaussian_moments () =
  let rng = Splitmix.of_seed 37 in
  let n = 50_000 in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let x = Geo.gaussian rng in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  if abs_float mean > 0.03 then Alcotest.failf "gaussian mean %f" mean;
  if abs_float (var -. 1.) > 0.05 then Alcotest.failf "gaussian var %f" var

let test_geo_sample () =
  let rng = Splitmix.of_seed 41 in
  let points = Geo.sample rng Geo.campus ~n:500 in
  Alcotest.(check int) "count" 500 (Array.length points);
  Array.iter
    (fun p ->
      let open Mis_graph.Geometry in
      if p.x < 0. || p.x > Geo.campus.Geo.width || p.y < 0.
         || p.y > Geo.campus.Geo.height
      then Alcotest.fail "point outside box")
    points

let test_dartmouth_like () =
  let g = Real_world.dartmouth_like ~seed:1 in
  Alcotest.(check int) "|V| = 178" 178 (Graph.n g);
  Alcotest.(check int) "|E| = 177" 177 (Graph.m g);
  Alcotest.(check bool) "tree" true (is_tree g)

let test_city_small () =
  let g = Real_world.nyc_like_small ~seed:1 in
  Alcotest.(check int) "|V| = 2048" 2048 (Graph.n g);
  Alcotest.(check bool) "tree" true (is_tree g)

(* Byte-for-byte pins: any change to the radius search, threshold_edges'
   order or Prim's tie-breaking moves these. The full NYC-like tree is
   pinned in the XL tier. *)
let test_real_world_pins () =
  Alcotest.(check string) "dartmouth_like ~seed:1"
    "4a1e36745cec61ba414863536ef1c957"
    (Helpers.edges_digest (Real_world.dartmouth_like ~seed:1));
  Alcotest.(check string) "nyc_like_small ~seed:1"
    "3ce55064dd64c22d980c2de2815a08fc"
    (Helpers.edges_digest (Real_world.nyc_like_small ~seed:1))

let largest_component_size g =
  let label, count = Traverse.components (View.full g) in
  Array.fold_left
    (fun best nodes -> max best (Array.length nodes))
    0
    (Traverse.component_members label count)

(* Reference radius search for [tree_of_points]: every grow step and
   bisection probe builds the MST forest at its radius and sizes its
   largest component from it. *)
let per_probe_tree rng points ~radius ~target =
  let n = Array.length points in
  if target < 1 || target > n then invalid_arg "per_probe_tree";
  let largest_at radius =
    let mst = Mis_graph.Mst.prim ~n (Mis_graph.Geometry.threshold_edges points ~radius) in
    largest_component_size (Graph.of_edges ~n mst)
  in
  let rec grow radius tries =
    if tries > 60 then failwith "per_probe_tree: cannot connect";
    if largest_at radius >= target then radius else grow (radius *. 1.3) (tries + 1)
  in
  let hi = grow radius 0 in
  let lo = ref (hi /. 1.3) and hi = ref hi in
  for _ = 1 to 10 do
    let mid = (!lo +. !hi) /. 2. in
    if largest_at mid >= target then hi := mid else lo := mid
  done;
  Real_world.tree_at rng points ~radius:!hi ~target

(* Small clustered clouds on an integer grid: co-located points give
   zero-length edges and integer start radii equal some distances
   exactly. Half the cases set [target] to the largest component at the
   start radius, so the first probe hinges on those exact distances; the
   rest draw it at random. Tiny start radii exhaust the 60 growth steps
   and targets past n are rejected, so both raising paths are compared. *)
let prop_search_matches_per_probe =
  Helpers.qtest ~count:150 "tree_of_points = per-probe MST search"
    QCheck.(
      quad Helpers.arb_seed (int_range 1 120)
        (oneofl [ 1e-6; 1.; 2.; 5.; 10.; 25. ])
        (pair bool (float_range 0. 1.05)))
    (fun (seed, n, radius, (critical, frac)) ->
      let params =
        { Geo.campus with
          Geo.clusters = 4; sigma = 6.; width = 120.; height = 80. }
      in
      let points = Geo.sample (Splitmix.of_seed seed) params ~n in
      let target =
        if critical then
          largest_component_size (Geometry_oracle.unit_disk points ~radius)
        else max 1 (int_of_float (frac *. float_of_int n))
      in
      let outcome build =
        match build (Splitmix.of_seed (seed + 1)) points ~radius ~target with
        | g -> Ok (Graph.edges g)
        | exception Failure _ -> Error "Failure"
        | exception Invalid_argument _ -> Error "Invalid_argument"
      in
      outcome Real_world.tree_of_points = outcome per_probe_tree)

let test_real_world_determinism () =
  let g1 = Real_world.dartmouth_like ~seed:5 in
  let g2 = Real_world.dartmouth_like ~seed:5 in
  Alcotest.(check bool) "same edges" true (Graph.edges g1 = Graph.edges g2)

(* Geometric graphs *)

let test_unit_disk () =
  let points =
    [| { Mis_graph.Geometry.x = 0.; y = 0. };
       { Mis_graph.Geometry.x = 1.; y = 0. };
       { Mis_graph.Geometry.x = 5.; y = 0. } |]
  in
  let g = Geometry_oracle.unit_disk points ~radius:1.5 in
  Alcotest.(check int) "one edge" 1 (Graph.m g);
  Alcotest.(check bool) "0-1 adjacent" true (Graph.mem_edge g 0 1)

let suite =
  [ ( "workload.trees",
      [ Alcotest.test_case "paper sizes" `Quick test_paper_tree_sizes;
        Alcotest.test_case "generators are trees" `Quick
          test_tree_generators_are_trees;
        Alcotest.test_case "star shape" `Quick test_star_shape;
        Alcotest.test_case "spider size" `Quick test_spider_size;
        Alcotest.test_case "caterpillar size" `Quick test_caterpillar_size;
        prop_random_trees;
        prop_prufer_varies ] );
    ( "workload.bipartite",
      [ Alcotest.test_case "generators bipartite" `Quick test_bipartite_generators;
        Alcotest.test_case "sizes" `Quick test_bipartite_sizes;
        Alcotest.test_case "odd cycle rejected" `Quick test_even_cycle_rejects_odd;
        prop_random_bipartite ] );
    ( "workload.planar",
      [ Alcotest.test_case "generators" `Quick test_planar_generators;
        prop_outerplanar ] );
    ( "workload.special",
      [ Alcotest.test_case "cone structure" `Quick test_cone_structure;
        Alcotest.test_case "clique" `Quick test_clique ] );
    ( "workload.geo",
      [ Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
        Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
        Alcotest.test_case "sample in box" `Quick test_geo_sample ] );
    ( "workload.real_world",
      [ Alcotest.test_case "dartmouth-like" `Quick test_dartmouth_like;
        Alcotest.test_case "city small" `Slow test_city_small;
        Alcotest.test_case "determinism" `Quick test_real_world_determinism;
        Alcotest.test_case "edge digests pinned" `Quick test_real_world_pins;
        prop_search_matches_per_probe ] );
    ( "workload.geo_graphs",
      [ Alcotest.test_case "unit disk" `Quick test_unit_disk ] ) ]
