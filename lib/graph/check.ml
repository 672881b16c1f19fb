type verdict = Mis | Not_independent | Not_maximal

let[@inline] on mask i = match mask with None -> true | Some a -> a.(i)

(* Whether some neighbor of [u] across a usable arc is in [set]: a plain
   index loop over the CSR entries [off.(u) .. off.(u + 1) - 1]. *)
let[@inline] member_in ~off ~adj ~adj_edge ~nodes ~edges set u =
  let hit = ref false in
  let i = ref off.(u) in
  let stop = off.(u + 1) in
  while (not !hit) && !i < stop do
    let v = adj.(!i) in
    if set.(v) && on nodes v && on edges adj_edge.(!i) then hit := true;
    incr i
  done;
  !hit

(* One pass over the active nodes: stop at the first member with a member
   neighbor; note, but scan on past, the first uncovered non-member, so
   that independence is reported ahead of maximality. *)
let classify view set =
  let g = View.graph view in
  let off = Graph.csr_off g and adj = Graph.csr_adj g in
  let adj_edge = Graph.csr_adj_edge g in
  let nodes = View.node_mask view and edges = View.edge_mask view in
  let n = View.n view in
  let dependent = ref false and uncovered = ref false in
  let u = ref 0 in
  while (not !dependent) && !u < n do
    let x = !u in
    if on nodes x then begin
      if set.(x) then
        dependent := member_in ~off ~adj ~adj_edge ~nodes ~edges set x
      else if not !uncovered then
        uncovered := not (member_in ~off ~adj ~adj_edge ~nodes ~edges set x)
    end;
    incr u
  done;
  if !dependent then Not_independent
  else if !uncovered then Not_maximal
  else Mis

let member_neighbor view set u =
  let g = View.graph view in
  member_in ~off:(Graph.csr_off g) ~adj:(Graph.csr_adj g)
    ~adj_edge:(Graph.csr_adj_edge g) ~nodes:(View.node_mask view)
    ~edges:(View.edge_mask view) set u

let surviving_view view ~crashed =
  let n = View.n view in
  if Array.length crashed <> n then
    invalid_arg "Check.surviving_view: crashed mask length";
  let nodes = Array.init n (fun u -> View.node_active view u && not crashed.(u)) in
  let m = Graph.m (View.graph view) in
  let edges = Array.init m (fun e -> View.edge_active view e) in
  View.restrict ~nodes ~edges (View.graph view)

let is_surviving_mis view ~crashed in_set =
  classify (surviving_view view ~crashed) in_set = Mis

let is_proper_coloring view color =
  let ok = ref true in
  View.iter_active view (fun u ->
      if color.(u) < 0 then ok := false
      else
        View.iter_adj view u (fun v -> if color.(v) = color.(u) then ok := false));
  !ok

let count_colors color =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun c -> if c >= 0 && not (Hashtbl.mem seen c) then Hashtbl.add seen c ())
    color;
  Hashtbl.length seen
