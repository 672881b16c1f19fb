module Splitmix = Mis_util.Splitmix
module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Traverse = Mis_graph.Traverse

(* Prune random leaves of a tree (given as an edge list over [alive] nodes)
   until exactly [target] nodes remain; returns the relabelled tree. *)
let prune_to_target rng ~n ~edges ~members ~target =
  let alive = Array.make n false in
  Array.iter (fun u -> alive.(u) <- true) members;
  let adjacency = Array.make n [] in
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      if alive.(u) && alive.(v) then begin
        adjacency.(u) <- v :: adjacency.(u);
        adjacency.(v) <- u :: adjacency.(v);
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1
      end)
    edges;
  let count = ref (Array.length members) in
  let leaves = ref [] in
  Array.iter (fun u -> if deg.(u) <= 1 then leaves := u :: !leaves) members;
  let leaf_pool = ref (Array.of_list !leaves) in
  let pool_len = ref (Array.length !leaf_pool) in
  let fresh = ref [] in
  while !count > target do
    if !pool_len = 0 then begin
      leaf_pool := Array.of_list !fresh;
      pool_len := Array.length !leaf_pool;
      fresh := [];
      if !pool_len = 0 then failwith "Real_world.prune: no leaves left"
    end
    else begin
      let i = Splitmix.int rng !pool_len in
      let u = !leaf_pool.(i) in
      !leaf_pool.(i) <- !leaf_pool.(!pool_len - 1);
      decr pool_len;
      if alive.(u) && deg.(u) <= 1 then begin
        alive.(u) <- false;
        decr count;
        List.iter
          (fun v ->
            if alive.(v) then begin
              deg.(v) <- deg.(v) - 1;
              if deg.(v) = 1 then fresh := v :: !fresh
            end)
          adjacency.(u)
      end
    end
  done;
  let label = Array.make n (-1) in
  let next = ref 0 in
  for u = 0 to n - 1 do
    if alive.(u) then begin
      label.(u) <- !next;
      incr next
    end
  done;
  let kept =
    List.filter_map
      (fun (u, v) ->
        if alive.(u) && alive.(v) then Some (label.(u), label.(v)) else None)
      edges
  in
  Graph.of_edges ~n:target kept

(* Largest component of the graph whose edges [iter] passes to its
   callback, by one DSU pass. *)
let largest_component ~n iter =
  let dsu = Mis_util.Dsu.create n and largest = ref 1 in
  iter (fun u v ->
      if Mis_util.Dsu.union dsu u v then
        largest := max !largest (Mis_util.Dsu.size dsu u));
  !largest

(* The scan at [radius] fixes the edge order, and that order fixes Prim's
   ties: the tree must come from a scan at exactly this radius. *)
let tree_at rng points ~radius ~target =
  let n = Array.length points in
  let weighted = Mis_graph.Geometry.threshold_edges points ~radius in
  let mst_edges = Mis_graph.Mst.prim ~n weighted in
  let forest = Graph.of_edges ~n mst_edges in
  let label, comp_count = Traverse.components (View.full forest) in
  let members = Traverse.component_members label comp_count in
  let largest =
    Array.fold_left
      (fun best nodes ->
        if Array.length nodes > Array.length best then nodes else best)
      [||] members
  in
  prune_to_target rng ~n ~edges:mst_edges ~members:largest ~target

let tree_of_points rng points ~radius ~target =
  let n = Array.length points in
  if target < 1 || target > n then invalid_arg "Real_world.tree_of_points";
  (* Grow the radius until the largest component reaches the target, then
     binary-search the smallest sufficient radius so that leaf-pruning to
     the exact size removes as little structure as possible. Each probe is
     a DSU pass: grow steps run it inside the scan at their radius, and
     bisection filters one edge array from the first passing radius. *)
  let rec grow radius tries =
    if tries > 60 then failwith "Real_world.tree_of_points: cannot connect";
    let scan add =
      Mis_graph.Geometry.iter_threshold points ~radius (fun _ u v -> add u v)
    in
    if largest_component ~n scan >= target then radius
    else grow (radius *. 1.3) (tries + 1)
  in
  let hi = grow radius 0 in
  let e = Mis_graph.Geometry.threshold_edges points ~radius:hi in
  let lo = ref (hi /. 1.3) and hi = ref hi in
  for _ = 1 to 10 do
    let mid = (!lo +. !hi) /. 2. in
    let within add =
      for k = 0 to Array.length e.w - 1 do
        if e.w.(k) <= mid then add e.u.(k) e.v.(k)
      done
    in
    if largest_component ~n within >= target then hi := mid else lo := mid
  done;
  tree_at rng points ~radius:!hi ~target

let dartmouth_like ~seed =
  let rng = Splitmix.stream (Int64.of_int seed) [ 101 ] in
  let points = Geo.sample rng Geo.campus ~n:700 in
  tree_of_points rng points ~radius:20. ~target:178

let nyc_like ~seed =
  let rng = Splitmix.stream (Int64.of_int seed) [ 102 ] in
  let points = Geo.sample rng Geo.city ~n:19000 in
  tree_of_points rng points ~radius:60. ~target:17834

let nyc_like_small ~seed =
  let rng = Splitmix.stream (Int64.of_int seed) [ 103 ] in
  let points = Geo.sample rng Geo.city ~n:2300 in
  tree_of_points rng points ~radius:120. ~target:2048
