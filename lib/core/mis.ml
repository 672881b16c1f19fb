module View = Mis_graph.View
module Check = Mis_graph.Check

exception Invalid of string

let verify ~name view set =
  match Check.classify view set with
  | Check.Mis -> ()
  | Check.Not_independent -> raise (Invalid (name ^ ": independence violated"))
  | Check.Not_maximal -> raise (Invalid (name ^ ": not maximal"))

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
