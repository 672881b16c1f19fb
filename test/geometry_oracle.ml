(* Reference implementations over boxed [(weight, u, v)] tuples, kept as
   test oracles: the tuple-keyed hash-grid threshold scan and the
   list-adjacency Prim that the flat [Geometry]/[Mst] code must reproduce
   edge for edge, and Kruskal for MST weights. *)

open Mis_graph.Geometry

let dist a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

(* [(lower_left, upper_right)]; raises on the empty array. *)
let bounding_box points =
  if Array.length points = 0 then invalid_arg "Geometry.bounding_box: empty";
  let lo = ref points.(0) and hi = ref points.(0) in
  Array.iter
    (fun p ->
      lo := { x = Float.min !lo.x p.x; y = Float.min !lo.y p.y };
      hi := { x = Float.max !hi.x p.x; y = Float.max !hi.y p.y })
    points;
  (!lo, !hi)

let threshold_edges points ~radius =
  if radius <= 0. then invalid_arg "Geometry.threshold_edges: radius";
  let n = Array.length points in
  if n = 0 then [||]
  else begin
    let lo, _ = bounding_box points in
    let cell p =
      ( int_of_float ((p.x -. lo.x) /. radius),
        int_of_float ((p.y -. lo.y) /. radius) )
    in
    let grid : (int * int, int list ref) Hashtbl.t = Hashtbl.create (2 * n) in
    Array.iteri
      (fun i p ->
        let key = cell p in
        match Hashtbl.find_opt grid key with
        | Some bucket -> bucket := i :: !bucket
        | None -> Hashtbl.add grid key (ref [ i ]))
      points;
    let acc = ref [] in
    Array.iteri
      (fun i p ->
        let cx, cy = cell p in
        for dx = -1 to 1 do
          for dy = -1 to 1 do
            match Hashtbl.find_opt grid (cx + dx, cy + dy) with
            | None -> ()
            | Some bucket ->
              List.iter
                (fun j ->
                  if j > i then begin
                    let d = dist p points.(j) in
                    if d <= radius then acc := (d, i, j) :: !acc
                  end)
                !bucket
          done
        done)
      points;
    Array.of_list !acc
  end

let kruskal ~n weighted_edges =
  Array.sort
    (fun (w1, _, _) (w2, _, _) -> Float.compare w1 w2)
    weighted_edges;
  let dsu = Mis_util.Dsu.create n in
  let acc = ref [] in
  Array.iter
    (fun (_, u, v) -> if Mis_util.Dsu.union dsu u v then acc := (u, v) :: !acc)
    weighted_edges;
  List.rev !acc

let prim ~n weighted_edges =
  let adjacency = Array.make n [] in
  Array.iter
    (fun (w, u, v) ->
      adjacency.(u) <- (w, v) :: adjacency.(u);
      adjacency.(v) <- (w, u) :: adjacency.(v))
    weighted_edges;
  (* FIFO among equal weights: bias each pushed edge by an epsilon
     proportional to its push sequence number. The bias (< 1e-4 overall)
     only disambiguates ties for any real-world coordinate scale. *)
  let seq = ref 0 in
  let heap = Mis_util.Heap.create ~capacity:(2 * n) () in
  let push w u v =
    incr seq;
    Mis_util.Heap.push heap ~priority:(w +. (1e-12 *. float_of_int !seq)) ((u * n) + v)
  in
  let visited = Array.make n false in
  let edges = ref [] in
  for start = 0 to n - 1 do
    if not visited.(start) then begin
      visited.(start) <- true;
      List.iter (fun (w, v) -> push w start v) (List.rev adjacency.(start));
      let continue = ref true in
      while !continue do
        if Mis_util.Heap.is_empty heap then continue := false
        else begin
          let _, code = Mis_util.Heap.pop_min heap in
          let u = code / n and v = code mod n in
          if not visited.(v) then begin
            visited.(v) <- true;
            edges := (u, v) :: !edges;
            List.iter (fun (w, t) -> if not visited.(t) then push w v t)
              (List.rev adjacency.(v))
          end
        end
      done
    end
  done;
  List.rev !edges

let spanning_forest_weight ~n weighted_edges =
  let copy = Array.copy weighted_edges in
  Array.sort (fun (w1, _, _) (w2, _, _) -> Float.compare w1 w2) copy;
  let dsu = Mis_util.Dsu.create n in
  let total = ref 0. in
  Array.iter
    (fun (w, u, v) -> if Mis_util.Dsu.union dsu u v then total := !total +. w)
    copy;
  !total

(* Conversions between the tuple and struct-of-arrays forms. *)
let to_flat triples =
  { w = Array.map (fun (w, _, _) -> w) triples;
    u = Array.map (fun (_, u, _) -> u) triples;
    v = Array.map (fun (_, _, v) -> v) triples }

let of_flat e = Array.mapi (fun k w -> (w, e.u.(k), e.v.(k))) e.w

(* The unit-disk graph: an edge between every pair of points at distance
   <= radius. Its largest component is the critical-radius oracle of
   [Real_world.tree_of_points]'s search. *)
let unit_disk points ~radius =
  let n = Array.length points in
  let e = Mis_graph.Geometry.threshold_edges points ~radius in
  Mis_graph.Graph.of_edge_array ~n (Array.mapi (fun k u -> (u, e.v.(k))) e.u)
