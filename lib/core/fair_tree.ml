module View = Mis_graph.View
module Graph = Mis_graph.Graph
module Stage = Rand_plan.Stage

type trace = {
  cut : bool array;
  i1 : bool array;
  i2 : bool array;
  i3 : bool array;
  fallback_nodes : int;
  rounds : int;
}

let ceil_log2 = Mis_util.Ids.ceil_log2

let gamma_default ~n = (4 * ceil_log2 (max n 2)) + 2

let run_traced ?gamma view plan =
  let g = View.graph view in
  let n = Graph.n g and m = Graph.m g in
  let gamma = match gamma with
    | Some v -> if v < 1 then invalid_arg "Fair_tree.run: gamma" else v
    | None -> gamma_default ~n
  in
  let base_nodes = Array.init n (View.node_active view) in
  let base_edges = Array.init m (View.usable_edge view) in
  (* Stage 1: cut coins, then a fair MIS inside each uncut component. *)
  let cut =
    Array.init m (fun e ->
        base_edges.(e)
        &&
        let u, v = Graph.edge_endpoints g e in
        Rand_plan.edge_bit plan ~stage:Stage.fair_tree_cut ~u ~v)
  in
  let edges1 = Array.init m (fun e -> base_edges.(e) && not cut.(e)) in
  let v1 = View.restrict ~nodes:base_nodes ~edges:edges1 g in
  let r1 =
    Cntrl_fair_bipart.run v1 ~d_hat:gamma
      ~bit_of:(fun u -> Rand_plan.node_bit plan ~stage:Stage.fair_tree_s1 ~node:u)
  in
  let i1 = r1.Cntrl_fair_bipart.joined in
  (* Stage 2: resolve conflicts on the subgraph induced by I. *)
  let v2 = View.restrict ~nodes:i1 ~edges:base_edges g in
  let r2 =
    Cntrl_fair_bipart.run v2 ~d_hat:gamma
      ~bit_of:(fun u -> Rand_plan.node_bit plan ~stage:Stage.fair_tree_s2 ~node:u)
  in
  let i2 = Array.init n (fun u -> i1.(u) && r2.Cntrl_fair_bipart.joined.(u)) in
  (* Stage 3: maximalize on uncovered nodes. *)
  let uncovered = Mis.uncovered view i2 in
  let v3 = View.restrict ~nodes:uncovered ~edges:base_edges g in
  let r3 =
    Cntrl_fair_bipart.run v3 ~d_hat:gamma
      ~bit_of:(fun u -> Rand_plan.node_bit plan ~stage:Stage.fair_tree_s3 ~node:u)
  in
  let i3 =
    Array.init n (fun u ->
        i2.(u) || (uncovered.(u) && r3.Cntrl_fair_bipart.joined.(u)))
  in
  (* Stage 4: repair independence, then Luby on anything still uncovered. *)
  let i4 = Mis.remove_violations view i3 in
  let rest = Mis.uncovered view i4 in
  let fallback_nodes = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 rest in
  let final, luby_rounds =
    if fallback_nodes = 0 then (i4, 0)
    else begin
      let v5 = View.restrict ~nodes:rest ~edges:base_edges g in
      let joined, stats = Luby.run_stats ~stage:Stage.fair_tree_luby v5 plan in
      (Array.init n (fun u -> i4.(u) || joined.(u)), 3 * stats.Luby.phases)
    end
  in
  let rounds = (3 * ((2 * gamma) + 1)) + 1 + luby_rounds in
  (final, { cut; i1; i2; i3; fallback_nodes; rounds })

let run ?gamma view plan = fst (run_traced ?gamma view plan)
