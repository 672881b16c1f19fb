module View = Mis_graph.View

let greedy_random_permutation view rng =
  let n = View.n view in
  let order = Mis_util.Ids.random_permutation rng ~n in
  let in_mis = Array.make n false in
  let covered = Array.make n false in
  Array.iter
    (fun u ->
      if View.node_active view u && not covered.(u) then begin
        in_mis.(u) <- true;
        covered.(u) <- true;
        View.iter_adj view u (fun v -> covered.(v) <- true)
      end)
    order;
  in_mis
