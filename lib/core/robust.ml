module Program = Mis_sim.Program
module Runtime = Mis_sim.Runtime

type ('s, 'm) inner = Running of 's | Finishing of bool

type ('s, 'm) robust_state = {
  inner : ('s, 'm) inner;
  pending : 'm Program.action list;  (* this logical round's actions *)
  got : (int * 'm) list;  (* copies accumulated over the window *)
  left : int;  (* physical receives before the window closes *)
  logical : int;  (* logical rounds already executed *)
}

(* Drop duplicate (sender, message) pairs, keeping first occurrences. The
   wrapped programs fold their inboxes idempotently (max, membership,
   sender sets), so deduplication preserves their perfect-network
   semantics exactly. *)
let dedup msgs =
  match msgs with
  | [] | [ _ ] -> msgs
  | _ ->
    let seen = Hashtbl.create 16 in
    List.filter
      (fun x ->
        if Hashtbl.mem seen x then false
        else begin
          Hashtbl.add seen x ();
          true
        end)
      msgs

let robustify ?(repeats = 3) ?timeout ?(fallback = false)
    (program : ('s, 'm) Program.t) =
  if repeats < 1 then invalid_arg "Robust.robustify: repeats must be >= 1";
  let timed_out logical =
    match timeout with Some t -> logical >= t | None -> false
  in
  (* Probes are annotations, not messages: re-performing them every
     physical round of the window would duplicate trace events, so the
     resend list keeps only real sends. *)
  let resendable =
    List.filter (function Program.Probe _ -> false | _ -> true)
  in
  let init ctx =
    let state, actions = program.Program.init ctx in
    ( { inner = Running state; pending = resendable actions; got = [];
        left = repeats; logical = 0 },
      actions )
  in
  let receive ctx st inbox =
    let got = st.got @ inbox in
    let left = st.left - 1 in
    if left > 0 then
      (* Window still open: accumulate and re-broadcast this round's
         messages so lost copies get another chance. *)
      (Program.Continue { st with got; left }, st.pending)
    else begin
      match st.inner with
      | Finishing b -> (Program.Output b, [])
      | Running state ->
        let logical = st.logical + 1 in
        let status, actions = program.Program.receive ctx state (dedup got) in
        (match status with
        | Program.Output b ->
          if repeats = 1 then (Program.Output b, actions)
          else
            (* Keep re-announcing the final messages for the rest of a
               window so neighbors reliably hear the decision. *)
            ( Program.Continue
                { inner = Finishing b; pending = resendable actions; got = [];
                  left = repeats - 1; logical },
              actions )
        | Program.Continue state' ->
          if timed_out logical then (Program.Output fallback, actions)
          else
            ( Program.Continue
                { inner = Running state'; pending = resendable actions;
                  got = []; left = repeats; logical },
              actions ))
    end
  in
  { Program.name = program.Program.name ^ "+robust"; init; receive }

let ceil_log2 = Mis_util.Ids.ceil_log2

let luby_rounds_budget ~n = 32 + (16 * ceil_log2 (max n 2))

let fair_tree_rounds_budget ~n ~gamma = (6 * gamma) + 6 + luby_rounds_budget ~n

let run_luby ?repeats ?timeout ?faults ?tracer
    ?(stage = Rand_plan.Stage.luby_main) view plan =
  let n = Mis_graph.View.n view in
  let repeats = match repeats with Some r -> r | None -> 3 in
  let timeout =
    match timeout with Some t -> t | None -> luby_rounds_budget ~n
  in
  let prog = robustify ~repeats ~timeout (Luby.program plan ~stage) in
  Runtime.run
    ~max_rounds:(repeats * (timeout + 2))
    ?faults ?tracer
    ~rng_of:(fun u -> Rand_plan.node_stream plan ~stage ~node:u)
    view prog

let run_fair_tree ?repeats ?timeout ?faults ?tracer ?gamma view plan =
  let n = Mis_graph.View.n view in
  let repeats = match repeats with Some r -> r | None -> 3 in
  let gamma =
    match gamma with Some g -> g | None -> Fair_tree_distributed.gamma_default ~n
  in
  let timeout =
    match timeout with Some t -> t | None -> fair_tree_rounds_budget ~n ~gamma
  in
  let prog =
    robustify ~repeats ~timeout (Fair_tree_distributed.program ~plan ~gamma)
  in
  Runtime.run
    ~max_rounds:(repeats * (timeout + 2))
    ~size_bits:(Fair_tree_distributed.message_bits ~n)
    ?faults ?tracer
    ~rng_of:(fun u -> Rand_plan.node_stream plan ~stage:99 ~node:u)
    view prog
