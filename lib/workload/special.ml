module Graph = Mis_graph.Graph

let clique n =
  if n < 1 then invalid_arg "Special.clique";
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let cone ~k =
  if k < 1 then invalid_arg "Special.cone";
  let n = (2 * k) + 1 in
  let edges = ref [] in
  (* Clique on nodes 1 .. 2k. *)
  for i = 1 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  (* Apex 0 adjacent to 1 .. k. *)
  for i = 1 to k do
    edges := (0, i) :: !edges
  done;
  Graph.of_edges ~n !edges

