type trace = {
  fallback_nodes : int;
  rounds : int;
  simulated : int;
}

let run_traced ?gamma view plan =
  let gamma =
    match gamma with
    | Some v -> if v < 1 then invalid_arg "Fair_tree.run: gamma" else v
    | None -> Fair_tree_distributed.gamma_default ~n:(Mis_graph.View.n view)
  in
  let o = Fair_tree_distributed.run_kernel ~gamma view plan in
  (* Stage 4 decides every node it covers at round 6γ+5; the rest decide
     later, in the Luby fallback. *)
  let r_decide = (6 * gamma) + 5 in
  let fallback_nodes =
    Array.fold_left
      (fun acc r -> if r > r_decide then acc + 1 else acc)
      0 o.Mis_sim.Kernel.decide_round
  in
  ( o.Mis_sim.Kernel.output,
    { fallback_nodes; rounds = o.Mis_sim.Kernel.rounds;
      simulated = o.Mis_sim.Kernel.simulated } )

let run ?gamma view plan = fst (run_traced ?gamma view plan)
