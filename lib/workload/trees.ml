module Graph = Mis_graph.Graph
module Splitmix = Mis_util.Splitmix

let of_parent_edges n edges = Graph.of_edges ~n edges

(* Generic level-by-level builder: [children_at depth] gives the number of
   children of an internal node at that depth. *)
let leveled ~depth ~children_at =
  let edges = ref [] in
  let next = ref 1 in
  let rec expand node d =
    if d < depth then begin
      let c = children_at d in
      for _ = 1 to c do
        let child = !next in
        incr next;
        edges := (node, child) :: !edges;
        expand child (d + 1)
      done
    end
  in
  expand 0 0;
  of_parent_edges !next !edges

let complete_kary ~branch ~depth =
  if branch < 1 || depth < 0 then invalid_arg "Trees.complete_kary";
  leveled ~depth ~children_at:(fun _ -> branch)

let alternating ~branch ~depth =
  if branch < 2 || depth < 0 then invalid_arg "Trees.alternating";
  leveled ~depth ~children_at:(fun d -> if d mod 2 = 0 then branch else 1)

let path n =
  if n < 1 then invalid_arg "Trees.path";
  of_parent_edges n (List.init (n - 1) (fun i -> (i, i + 1)))

let star n =
  if n < 1 then invalid_arg "Trees.star";
  of_parent_edges n (List.init (n - 1) (fun i -> (0, i + 1)))

let spider ~legs ~leg_length =
  if legs < 0 || leg_length < 1 then invalid_arg "Trees.spider";
  let edges = ref [] in
  let next = ref 1 in
  for _ = 1 to legs do
    let first = !next in
    incr next;
    edges := (0, first) :: !edges;
    let prev = ref first in
    for _ = 2 to leg_length do
      let node = !next in
      incr next;
      edges := (!prev, node) :: !edges;
      prev := node
    done
  done;
  of_parent_edges !next !edges

let caterpillar ~spine ~legs_per_node =
  if spine < 1 || legs_per_node < 0 then invalid_arg "Trees.caterpillar";
  let edges = ref [] in
  let next = ref spine in
  for i = 0 to spine - 2 do
    edges := (i, i + 1) :: !edges
  done;
  for i = 0 to spine - 1 do
    for _ = 1 to legs_per_node do
      edges := (i, !next) :: !edges;
      incr next
    done
  done;
  of_parent_edges !next !edges

let random_prufer rng ~n =
  if n < 1 then invalid_arg "Trees.random_prufer";
  if n = 1 then of_parent_edges 1 []
  else if n = 2 then of_parent_edges 2 [ (0, 1) ]
  else begin
    let seq = Array.init (n - 2) (fun _ -> Splitmix.int rng n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) seq;
    let heap = Mis_util.Heap.create ~capacity:n () in
    for v = 0 to n - 1 do
      if deg.(v) = 1 then Mis_util.Heap.push heap ~priority:(float_of_int v) v
    done;
    let edges = ref [] in
    Array.iter
      (fun v ->
        let _, leaf = Mis_util.Heap.pop_min heap in
        edges := (leaf, v) :: !edges;
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 1 then Mis_util.Heap.push heap ~priority:(float_of_int v) v)
      seq;
    let _, a = Mis_util.Heap.pop_min heap in
    let _, b = Mis_util.Heap.pop_min heap in
    edges := (a, b) :: !edges;
    of_parent_edges n !edges
  end

(* Uniform attachment trees, built for the engine/xl scale (10^5..10^7
   nodes): the parent array feeds [Graph.of_parents] directly — no edge
   lists, tuples or hash tables on the way to CSR. Parents are drawn in
   index order. *)
let attachment_parents rng ~n =
  if n < 1 then invalid_arg "Trees.attachment_parents";
  let parents = Array.make n (-1) in
  for i = 1 to n - 1 do
    parents.(i) <- Splitmix.int rng i
  done;
  parents

let random_attachment_xl rng ~n = Graph.of_parents (attachment_parents rng ~n)

let preferential_attachment rng ~n =
  if n < 1 then invalid_arg "Trees.preferential_attachment";
  if n = 1 then of_parent_edges 1 []
  else begin
    (* endpoints.(k) lists each node once per incident edge, so sampling a
       uniform entry is degree-proportional sampling. *)
    let endpoints = Array.make (2 * (n - 1)) 0 in
    let len = ref 0 in
    let edges = ref [ (1, 0) ] in
    endpoints.(0) <- 0;
    endpoints.(1) <- 1;
    len := 2;
    for v = 2 to n - 1 do
      let target = endpoints.(Splitmix.int rng !len) in
      edges := (v, target) :: !edges;
      endpoints.(!len) <- target;
      endpoints.(!len + 1) <- v;
      len := !len + 2
    done;
    of_parent_edges n !edges
  end
