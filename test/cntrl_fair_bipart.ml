(* CntrlFairBipart (paper Sec. V): the perfectly fair MIS subroutine for
   low-diameter bipartite components, as a message program. Lemma 7 is
   tested on it; FairTree's three runs of the subroutine execute as
   [Mis_sim.Kernel.fair_tree] sweeps or inside
   [Fair_tree_distributed.program].

   Given an estimate [d_hat] of the component diameter, each component
   runs a [d_hat]-round flood-max leader election; the leader(s) flip a
   bit and start a breadth-first search carrying (depth, bit); a node at
   level [i] joins the MIS iff [i + bit] is even. A node that is alone
   (degree 0 in the view) always joins. When [d_hat >= D(component)]
   this is a correct MIS of the component where every non-singleton node
   joins with probability exactly 1/2; an underestimate may elect
   several local leaders, and the result need not be an MIS. *)

module Program = Mis_sim.Program
module Rand_plan = Fairmis.Rand_plan

let parity_join ~depth ~bit = (depth + if bit then 1 else 0) mod 2 = 0

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
          if Array.length ctx.neighbor_ids = 0 then true
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
