module Rooted = Mis_graph.Rooted
module Stage = Rand_plan.Stage

type trace = {
  stage1 : bool array;
  rounds : int;
}

(* Core of the algorithm with the coin flips abstracted out: [tag v] is
   node v's bit, [vtag r] the virtual-parent bit a root draws for itself. *)
let run_with_tags (t : Rooted.t) ~ids ~tag ~vtag =
  let n = t.Rooted.n in
  (* Stage 1: join iff own tag is 0 and parent's tag is 1. *)
  let parent_tag v =
    match t.Rooted.parent.(v) with -1 -> vtag v | p -> tag p
  in
  let stage1 = Array.init n (fun v -> (not (tag v)) && parent_tag v) in
  (* Stage 2: covered nodes terminate; the rest run Cole–Vishkin. *)
  let covered = Array.copy stage1 in
  for v = 0 to n - 1 do
    if stage1.(v) then begin
      let p = t.Rooted.parent.(v) in
      if p >= 0 then covered.(p) <- true
    end
    else begin
      let p = t.Rooted.parent.(v) in
      if p >= 0 && stage1.(p) then covered.(v) <- true
    end
  done;
  let keep = Array.map not covered in
  let residual = Rooted.restrict t ~keep in
  let id_bound = 1 + Array.fold_left max 0 ids in
  let schedule = Cole_vishkin.iterations ~id_bound in
  let rest, cv_rounds = Cole_vishkin.mis residual ~keep ~schedule ~ids in
  let final = Array.init n (fun v -> stage1.(v) || (keep.(v) && rest.(v))) in
  (final, { stage1; rounds = 2 + cv_rounds })

let run_traced ?ids (t : Rooted.t) plan =
  let n = t.Rooted.n in
  let ids = match ids with Some a -> a | None -> Array.init n (fun i -> i) in
  run_with_tags t ~ids
    ~tag:(fun v -> Rand_plan.node_bit plan ~stage:Stage.fair_rooted_tag ~node:v)
    ~vtag:(fun v ->
      Rand_plan.node_bit plan ~stage:Stage.fair_rooted_virtual ~node:v)

let run ?ids t plan = fst (run_traced ?ids t plan)
