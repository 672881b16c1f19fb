module Stage = Rand_plan.Stage

let program ~plan ~p ~gamma =
  Block_program.program
    { Block_program.gamma;
      radius_of =
        (fun id ->
          Rand_plan.node_radius plan ~stage:Stage.fair_bipart_radius ~node:id ~p
            ~gamma);
      payload_of =
        (fun id ->
          if Rand_plan.node_bit plan ~stage:Stage.fair_bipart_bit ~node:id then 1
          else 0);
      flip_per_hop = true;
      joins = (fun ~id:_ ~payload -> payload = 1);
      luby_value =
        (fun ~id ~phase ->
          Rand_plan.node_value plan ~stage:Stage.fair_bipart_luby ~round:phase
            ~node:id) }

let ceil_log2 = Mis_util.Ids.ceil_log2

let run ?(p = 0.5) ?gamma ?tracer view plan =
  let n = Mis_graph.View.n view in
  let gamma =
    match gamma with Some v -> v | None -> Fair_bipart.gamma_default ~n
  in
  let prog = program ~plan ~p ~gamma in
  Mis_sim.Runtime.run
    ~max_rounds:((gamma * gamma) + 2 + (64 * (ceil_log2 (max n 2) + 2)))
    ?tracer
    ~rng_of:(fun u -> Rand_plan.node_stream plan ~stage:97 ~node:u)
    view prog
