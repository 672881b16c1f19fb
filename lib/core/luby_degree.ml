module View = Mis_graph.View
module Program = Mis_sim.Program

let default_stage = Rand_plan.Stage.luby_main + 1

(* Mark with probability 1/(2 d); the 62-bit keyed value is compared
   against the corresponding threshold so both engines agree bit-for-bit.
   Isolated nodes always mark. *)
let marks plan ~stage ~phase ~node ~degree =
  if degree = 0 then true
  else begin
    let v = Rand_plan.node_value plan ~stage ~round:phase ~node in
    float_of_int v < 0x1p62 /. (2. *. float_of_int degree)
  end

(* Between two marked neighbors, the one with the smaller (degree, id)
   pair unmarks. *)
let loses (d1, id1) (d2, id2) = d1 < d2 || (d1 = d2 && id1 < id2)

let run ?(stage = default_stage) view plan =
  let n = View.n view in
  let in_mis = Array.make n false in
  let alive = Array.make n false in
  View.iter_active view (fun u -> alive.(u) <- true);
  let live = ref (View.active_nodes view) in
  let degree = Array.make n 0 in
  let marked = Array.make n false in
  let phase = ref 0 in
  while Array.length !live > 0 do
    let nodes = !live in
    Array.iter
      (fun u ->
        let d = ref 0 in
        View.iter_adj view u (fun w -> if alive.(w) then incr d);
        degree.(u) <- !d;
        marked.(u) <- marks plan ~stage ~phase:!phase ~node:u ~degree:!d)
      nodes;
    let survivors =
      Array.to_list nodes
      |> List.filter (fun u ->
             marked.(u)
             &&
             let beaten = ref false in
             View.iter_adj view u (fun w ->
                 if alive.(w) && marked.(w)
                    && loses (degree.(u), u) (degree.(w), w)
                 then beaten := true);
             not !beaten)
    in
    List.iter
      (fun u ->
        in_mis.(u) <- true;
        alive.(u) <- false;
        View.iter_adj view u (fun w -> alive.(w) <- false))
      survivors;
    live := Array.of_list (List.filter (fun u -> alive.(u)) (Array.to_list nodes));
    incr phase
  done;
  in_mis

type message =
  | Marked of { degree : int }
  | In_mis
  | Withdraw

type sub =
  | Await_marks
  | Await_in_mis
  | Await_withdraws

type state = {
  phase : int;
  sub : sub;
  live : int list;
  my_degree : int;
  marked : bool;
}

let program plan ~stage : (state, message) Program.t =
  let start_phase id live phase =
    let d = List.length live in
    let marked = marks plan ~stage ~phase ~node:id ~degree:d in
    let st = { phase; sub = Await_marks; live; my_degree = d; marked } in
    let actions = if marked then [ Program.Broadcast (Marked { degree = d }) ] else [] in
    (st, actions)
  in
  let init (ctx : Mis_sim.Node_ctx.t) =
    start_phase ctx.id (Array.to_list ctx.neighbor_ids) 0
  in
  let receive (ctx : Mis_sim.Node_ctx.t) st inbox =
    match st.sub with
    | Await_marks ->
      if st.marked then begin
        let beaten = ref false in
        List.iter
          (fun (sender, m) ->
            match m with
            | Marked { degree } ->
              if loses (st.my_degree, ctx.id) (degree, sender) then beaten := true
            | In_mis | Withdraw -> ())
          inbox;
        if !beaten then (Program.Continue { st with sub = Await_in_mis }, [])
        else (Program.Output true, [ Program.Broadcast In_mis ])
      end
      else (Program.Continue { st with sub = Await_in_mis }, [])
    | Await_in_mis ->
      if List.exists (fun (_, m) -> m = In_mis) inbox then
        (Program.Output false, [ Program.Broadcast Withdraw ])
      else (Program.Continue { st with sub = Await_withdraws }, [])
    | Await_withdraws ->
      let gone =
        List.filter_map
          (fun (sender, m) -> if m = Withdraw then Some sender else None)
          inbox
      in
      let live = List.filter (fun id -> not (List.mem id gone)) st.live in
      let st, actions = start_phase ctx.id live (st.phase + 1) in
      (Program.Continue st, actions)
  in
  { Program.name = "luby_degree"; init; receive }

let run_distributed ?(stage = default_stage) ?tracer view plan =
  let prog = program plan ~stage in
  Mis_sim.Runtime.run ?tracer
    ~rng_of:(fun u -> Rand_plan.node_stream plan ~stage ~node:u)
    view prog
