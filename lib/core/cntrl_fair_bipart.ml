module View = Mis_graph.View
module Traverse = Mis_graph.Traverse
module Program = Mis_sim.Program

type result = {
  joined : bool array;
  leader : int array;
  level : int array;
  rounds : int;
}

let parity_join ~depth ~bit = (depth + if bit then 1 else 0) mod 2 = 0

(* Exact synchronous relaxation for one component whose leader election
   might not converge within [d_hat] rounds. [members] are the component's
   nodes. Writes the adopted (leader, level) pairs into [lead]/[depth]. *)
let relax_component view members ~d_hat lead depth =
  let best = Hashtbl.create (2 * Array.length members) in
  Array.iter (fun u -> Hashtbl.replace best u u) members;
  (* Phase 1: flood-max for d_hat rounds (frontier-based; a node whose max
     did not change contributes nothing new). *)
  let frontier = ref (Array.to_list members) in
  for _ = 1 to d_hat do
    let updates = Hashtbl.create 16 in
    List.iter
      (fun u ->
        let bu = Hashtbl.find best u in
        View.iter_adj view u (fun v ->
            let cand = match Hashtbl.find_opt updates v with
              | Some c -> Int.max c bu
              | None -> bu
            in
            Hashtbl.replace updates v cand))
      !frontier;
    let next = ref [] in
    Hashtbl.iter
      (fun v cand ->
        if cand > Hashtbl.find best v then begin
          Hashtbl.replace best v cand;
          next := v :: !next
        end)
      updates;
    frontier := !next
  done;
  (* Phase 2: leaders are the nodes that saw no larger id; BFS relaxation
     with candidate order (larger leader, then smaller depth). *)
  let better (l1, d1) (l2, d2) = l1 > l2 || (l1 = l2 && d1 < d2) in
  Array.iter
    (fun u ->
      if Hashtbl.find best u = u then begin
        lead.(u) <- u;
        depth.(u) <- 0
      end)
    members;
  let frontier = ref (List.filter (fun u -> lead.(u) = u) (Array.to_list members)) in
  for _ = 1 to d_hat do
    let updates = Hashtbl.create 16 in
    List.iter
      (fun u ->
        let cand = (lead.(u), depth.(u) + 1) in
        View.iter_adj view u (fun v ->
            let cand = match Hashtbl.find_opt updates v with
              | Some c -> if better c cand then c else cand
              | None -> cand
            in
            Hashtbl.replace updates v cand))
      !frontier;
    let next = ref [] in
    Hashtbl.iter
      (fun v (l, d) ->
        if lead.(v) < 0 || better (l, d) (lead.(v), depth.(v)) then begin
          lead.(v) <- l;
          depth.(v) <- d;
          next := v :: !next
        end)
      updates;
    frontier := !next
  done

let run view ~d_hat ~bit_of =
  if d_hat < 1 then invalid_arg "Cntrl_fair_bipart.run: d_hat must be >= 1";
  let n = View.n view in
  let lead = Array.make n (-1) in
  let depth = Array.make n (-1) in
  let label, comp_count = Traverse.components view in
  let members = Traverse.component_members label comp_count in
  let dist = Array.make n (-1) in
  let queue = Mis_util.Int_queue.create () in
  Array.iter
    (fun nodes ->
      (* Component leader candidate: the maximum id (= index). *)
      let max_id = Array.fold_left Int.max nodes.(0) nodes in
      (* BFS from it, confined to the component by construction. *)
      Mis_util.Int_queue.clear queue;
      dist.(max_id) <- 0;
      Mis_util.Int_queue.push queue max_id;
      let ecc = ref 0 in
      while not (Mis_util.Int_queue.is_empty queue) do
        let u = Mis_util.Int_queue.pop queue in
        View.iter_adj view u (fun v ->
            if dist.(v) < 0 then begin
              dist.(v) <- dist.(u) + 1;
              if dist.(v) > !ecc then ecc := dist.(v);
              Mis_util.Int_queue.push queue v
            end)
      done;
      if !ecc <= d_hat then
        (* Single successful leader: the direct formula is exact. *)
        Array.iter
          (fun u ->
            lead.(u) <- max_id;
            depth.(u) <- dist.(u))
          nodes
      else relax_component view nodes ~d_hat lead depth;
      Array.iter (fun u -> dist.(u) <- -1) nodes)
    members;
  let joined = Array.make n false in
  View.iter_active view (fun u ->
      if View.degree view u = 0 then begin
        joined.(u) <- true;
        lead.(u) <- u;
        depth.(u) <- 0
      end
      else if lead.(u) >= 0 then
        joined.(u) <- parity_join ~depth:depth.(u) ~bit:(bit_of lead.(u)));
  { joined; leader = lead; level = depth; rounds = 2 * d_hat }

type message =
  | Max_id of int
  | Bfs of { lead : int; depth : int; bit : bool }

type state = {
  round : int;
  best : int;
  lead : int;
  depth : int;
  bit : bool;
}

let program ~d_hat ~bit_of : (state, message) Program.t =
  if d_hat < 1 then invalid_arg "Cntrl_fair_bipart.program: d_hat must be >= 1";
  let init (ctx : Mis_sim.Node_ctx.t) =
    ( { round = 0; best = ctx.id; lead = -1; depth = -1; bit = false },
      [ Program.Broadcast (Max_id ctx.id) ] )
  in
  let receive (ctx : Mis_sim.Node_ctx.t) st inbox =
    let r = st.round + 1 in
    if r <= d_hat then begin
      (* Phase 1: leader election. *)
      let best =
        List.fold_left
          (fun acc (_, m) -> match m with Max_id v -> Int.max acc v | Bfs _ -> acc)
          st.best inbox
      in
      let st = { st with round = r; best } in
      if r < d_hat then (Program.Continue st, [ Program.Broadcast (Max_id best) ])
      else if best = ctx.id then begin
        (* I am the leader: flip the bit, start the BFS. *)
        let bit = bit_of ctx.id in
        let st = { st with lead = ctx.id; depth = 0; bit } in
        (Program.Continue st, [ Program.Broadcast (Bfs { lead = ctx.id; depth = 0; bit }) ])
      end
      else (Program.Continue st, [])
    end
    else begin
      (* Phase 2: BFS adoption. *)
      let better (l1, d1) (l2, d2) = l1 > l2 || (l1 = l2 && d1 < d2) in
      let st =
        List.fold_left
          (fun st (_, m) ->
            match m with
            | Max_id _ -> st
            | Bfs { lead; depth; bit } ->
              let cand = (lead, depth + 1) in
              if st.lead < 0 || better cand (st.lead, st.depth) then
                { st with lead; depth = depth + 1; bit }
              else st)
          { st with round = r }
          inbox
      in
      if r < 2 * d_hat then begin
        let actions =
          if st.lead >= 0 then
            [ Program.Broadcast (Bfs { lead = st.lead; depth = st.depth; bit = st.bit }) ]
          else []
        in
        (Program.Continue st, actions)
      end
      else begin
        let decision =
          if Mis_sim.Node_ctx.degree ctx = 0 then true
          else if st.lead < 0 then false
          else parity_join ~depth:st.depth ~bit:st.bit
        in
        (Program.Output decision, [])
      end
    end
  in
  { Program.name = "cntrl_fair_bipart"; init; receive }

let run_distributed view ~plan ~stage ~d_hat =
  let prog = program ~d_hat ~bit_of:(fun id -> Rand_plan.node_bit plan ~stage ~node:id) in
  Mis_sim.Runtime.run
    ~max_rounds:((2 * d_hat) + 2)
    ~rng_of:(fun u -> Rand_plan.node_stream plan ~stage ~node:u)
    view prog
