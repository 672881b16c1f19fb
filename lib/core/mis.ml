module View = Mis_graph.View
module Graph = Mis_graph.Graph
module Check = Mis_graph.Check

exception Invalid of string

let is_independent = Check.is_independent_set
let is_maximal view set = Check.is_maximal_independent view set
let is_mis = is_maximal

let verify ~name view set =
  match Check.classify view set with
  | Check.Mis -> ()
  | Check.Not_independent -> raise (Invalid (name ^ ": independence violated"))
  | Check.Not_maximal -> raise (Invalid (name ^ ": not maximal"))

let violations view set =
  let g = View.graph view in
  let off = Graph.csr_off g and adj = Graph.csr_adj g in
  let adj_edge = Graph.csr_adj_edge g in
  let acc = ref [] in
  for u = 0 to View.n view - 1 do
    if View.node_active view u && set.(u) then
      for i = off.(u) to off.(u + 1) - 1 do
        let v = adj.(i) in
        if v > u && set.(v) && View.node_active view v
           && View.edge_active view adj_edge.(i)
        then acc := (u, v) :: !acc
      done
  done;
  !acc

let remove_violations view set =
  let out = Array.copy set in
  for u = 0 to View.n view - 1 do
    if View.node_active view u && set.(u) && Check.member_neighbor view set u then
      out.(u) <- false
  done;
  out

let uncovered view set =
  let n = View.n view in
  let out = Array.make n false in
  for u = 0 to n - 1 do
    if View.node_active view u && (not set.(u))
       && not (Check.member_neighbor view set u)
    then out.(u) <- true
  done;
  out
