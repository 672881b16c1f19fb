module Geometry = Mis_graph.Geometry
module Splitmix = Mis_util.Splitmix

let unit_disk points ~radius =
  let n = Array.length points in
  let e = Geometry.threshold_edges points ~radius in
  Mis_graph.Graph.of_edge_array ~n (Array.mapi (fun k u -> (u, e.v.(k))) e.u)

type mixed = {
  graph : Mis_graph.Graph.t;
  dense : bool array;
}

let mixed_density rng ~sparse ~dense ~radius =
  if sparse < 1 || dense < 1 then invalid_arg "Geo_graphs.mixed_density";
  let n = sparse + dense in
  let points = Array.make n { Geometry.x = 0.; y = 0. } in
  (* Sparse region: a jittered grid with spacing 0.85 radius — orthogonal
     grid neighbors connect (degree ~4), diagonals usually do not. *)
  let cols = int_of_float (ceil (sqrt (float_of_int sparse))) in
  let spacing = 0.85 *. radius in
  for i = 0 to sparse - 1 do
    let r = i / cols and c = i mod cols in
    points.(i) <-
      { Geometry.x = (float_of_int c +. (0.1 *. Splitmix.float rng)) *. spacing;
        y = (float_of_int r +. (0.1 *. Splitmix.float rng)) *. spacing }
  done;
  (* Dense blob centered on the first sparse point, radius/3 across. *)
  let center = points.(0) in
  for j = 0 to dense - 1 do
    let angle = 2. *. Float.pi *. Splitmix.float rng in
    let dist = radius /. 3. *. Splitmix.float rng in
    points.(sparse + j) <-
      { Geometry.x = center.Geometry.x +. (dist *. cos angle);
        y = center.Geometry.y +. (dist *. sin angle) }
  done;
  let graph = unit_disk points ~radius in
  let dense_mask = Array.init n (fun i -> i >= sparse) in
  { graph; dense = dense_mask }
