type t = {
  g : Graph.t;
  nodes : bool array option;
  edges : bool array option;
}

let full g = { g; nodes = None; edges = None }

let restrict ?nodes ?edges g =
  (match nodes with
  | Some a when Array.length a <> Graph.n g ->
    invalid_arg "View.restrict: node mask length"
  | _ -> ());
  (match edges with
  | Some a when Array.length a <> Graph.m g ->
    invalid_arg "View.restrict: edge mask length"
  | _ -> ());
  { g; nodes; edges }

let graph t = t.g
let n t = Graph.n t.g

let node_mask t = t.nodes
let edge_mask t = t.edges

let node_active t u =
  match t.nodes with
  | None -> true
  | Some mask -> mask.(u)

let edge_active t e =
  match t.edges with
  | None -> true
  | Some mask -> mask.(e)

let usable_edge t e =
  edge_active t e
  &&
  let u, v = Graph.edge_endpoints t.g e in
  node_active t u && node_active t v

let iter_active t f =
  for u = 0 to n t - 1 do
    if node_active t u then f u
  done

let count_active t =
  let c = ref 0 in
  iter_active t (fun _ -> incr c);
  !c

let active_nodes t =
  let acc = ref [] in
  for u = n t - 1 downto 0 do
    if node_active t u then acc := u :: !acc
  done;
  Array.of_list !acc

let iter_adj_e t u f =
  Graph.iter_adj_e t.g u (fun v e ->
      if edge_active t e && node_active t v then f v e)

let iter_adj t u f = iter_adj_e t u (fun v _ -> f v)

let degree t u =
  let d = ref 0 in
  iter_adj t u (fun _ -> incr d);
  !d

let exists_adj t u pred =
  let found = ref false in
  iter_adj t u (fun v -> if (not !found) && pred v then found := true);
  !found
