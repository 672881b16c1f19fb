module Stage = Rand_plan.Stage

let program ~plan ~p ~gamma ~coloring ~k =
  if k < 1 then invalid_arg "Color_mis_distributed.program: k";
  Block_program.program
    { Block_program.gamma;
      radius_of =
        (fun id ->
          Rand_plan.node_radius plan ~stage:Stage.color_mis_radius ~node:id ~p
            ~gamma);
      payload_of =
        (fun id ->
          Rand_plan.node_int plan ~stage:Stage.color_mis_choice ~node:id ~bound:k);
      flip_per_hop = false;
      joins = (fun ~id ~payload -> coloring.(id) >= 0 && coloring.(id) = payload);
      luby_value =
        (fun ~id ~phase ->
          Rand_plan.node_value plan ~stage:Stage.color_mis_luby ~round:phase
            ~node:id) }

let ceil_log2 = Mis_util.Ids.ceil_log2

let run ?(p = 0.5) ?gamma ?tracer view ~coloring ~k plan =
  let n = Mis_graph.View.n view in
  let gamma =
    match gamma with Some v -> v | None -> Color_mis.gamma_default ~n
  in
  let prog = program ~plan ~p ~gamma ~coloring ~k in
  Mis_sim.Runtime.run
    ~max_rounds:((gamma * gamma) + 2 + (64 * (ceil_log2 (max n 2) + 2)))
    ?tracer
    ~rng_of:(fun u -> Rand_plan.node_stream plan ~stage:96 ~node:u)
    view prog
