module View = Mis_graph.View
module Program = Mis_sim.Program

type stats = { phases : int }

let default_stage = Rand_plan.Stage.luby_main

(* A node wins a phase when its (value, id) pair is a strict lexicographic
   minimum among itself and its live neighbors. *)
let beats (v1, id1) (v2, id2) = v1 < v2 || (v1 = v2 && id1 < id2)

type message =
  | Value of int
  | In_mis
  | Withdraw

type sub =
  | Await_values
  | Await_in_mis
  | Await_withdraws

type state = {
  phase : int;
  sub : sub;
  live : int list; (* ids of still-competing neighbors *)
  my_value : int;
}

let program plan ~stage : (state, message) Program.t =
  let value_of id phase = Rand_plan.node_value plan ~stage ~round:phase ~node:id in
  let init (ctx : Mis_sim.Node_ctx.t) =
    let v = value_of ctx.id 0 in
    ( { phase = 0; sub = Await_values; live = Array.to_list ctx.neighbor_ids;
        my_value = v },
      [ Program.Probe ("luby.phase", 0); Program.Broadcast (Value v) ] )
  in
  let receive (ctx : Mis_sim.Node_ctx.t) st inbox =
    match st.sub with
    | Await_values ->
      let beaten = ref false in
      List.iter
        (fun (sender, msg) ->
          match msg with
          | Value v ->
            if not (beats (st.my_value, ctx.id) (v, sender)) then beaten := true
          | In_mis | Withdraw -> ())
        inbox;
      if !beaten then (Program.Continue { st with sub = Await_in_mis }, [])
      else (Program.Output true, [ Program.Broadcast In_mis ])
    | Await_in_mis ->
      let covered = List.exists (fun (_, m) -> m = In_mis) inbox in
      if covered then (Program.Output false, [ Program.Broadcast Withdraw ])
      else (Program.Continue { st with sub = Await_withdraws }, [])
    | Await_withdraws ->
      let gone =
        List.filter_map
          (fun (sender, m) -> if m = Withdraw then Some sender else None)
          inbox
      in
      let live = List.filter (fun id -> not (List.mem id gone)) st.live in
      let phase = st.phase + 1 in
      let v = value_of ctx.id phase in
      ( Program.Continue { phase; sub = Await_values; live; my_value = v },
        [ Program.Probe ("luby.phase", phase); Program.Broadcast (Value v) ] )
  in
  { Program.name = "luby"; init; receive }

let run_distributed ?(stage = default_stage) ?tracer view plan =
  let prog = program plan ~stage in
  Mis_sim.Runtime.run ?tracer
    ~rng_of:(fun u -> Rand_plan.node_stream plan ~stage ~node:u)
    view prog

let run_distributed_on ?(stage = default_stage) ?tracer engine plan =
  let prog = program plan ~stage in
  Mis_sim.Runtime.Engine.exec ?tracer
    ~rng_of:(fun u -> Rand_plan.node_stream plan ~stage ~node:u)
    engine prog

let kernel_luby ?max_rounds ?into ~stage kernel plan =
  Mis_sim.Kernel.luby ?max_rounds ?into
    ~value_of:(Rand_plan.node_values plan ~stage)
    kernel

let run_kernel_on ?(stage = default_stage) ?into kernel plan =
  kernel_luby ?into ~stage kernel plan

(* No round cutoff: a centralized caller wants the MIS, however many
   phases it takes. A phase spans 3 rounds and the run ends in its
   second or third, so [(rounds + 2) / 3] counts the phases. *)
let run_stats ?(stage = default_stage) view plan =
  let o =
    kernel_luby ~max_rounds:max_int ~stage (Mis_sim.Kernel.create view) plan
  in
  (o.Mis_sim.Kernel.output, { phases = (o.Mis_sim.Kernel.rounds + 2) / 3 })

let run ?stage view plan = fst (run_stats ?stage view plan)

type completion = {
  mis : bool array;
  repaired : bool array;
  fallback_nodes : int;
  luby_rounds : int;
}

let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0

let complete ~stage view plan raw =
  let repaired = Mis.remove_violations view raw in
  let rest = Mis.uncovered view repaired in
  let fallback_nodes = count rest in
  if fallback_nodes = 0 then
    { mis = repaired; repaired; fallback_nodes; luby_rounds = 0 }
  else begin
    let g = View.graph view in
    let edges = Array.init (Mis_graph.Graph.m g) (View.usable_edge view) in
    let joined, stats =
      run_stats ~stage (View.restrict ~nodes:rest ~edges g) plan
    in
    { mis = Array.map2 ( || ) repaired joined; repaired; fallback_nodes;
      luby_rounds = 3 * stats.phases }
  end
