module View = Mis_graph.View
module Splitmix = Mis_util.Splitmix
module Stage = Rand_plan.Stage

type outcome = {
  colors : int array;
  palette : int;
  rounds : int;
}

let ceil_log2 = Mis_util.Ids.ceil_log2

(* One conflict-resolution sweep shared by both algorithms: every node of
   [pending] proposes a uniform color among the {e lowest}
   (1 + #uncolored-neighbors) colors of its palette not used by colored
   neighbors — enough randomness to resolve conflicts quickly, while
   keeping the number of colors actually used near the graph's degeneracy
   rather than Δ. Proposals that collide with a neighboring proposal are
   withdrawn. Returns the still-uncolored nodes. *)
let propose_round view ~colors ~proposal ~palette_of ~stream_of pending =
  List.iter
    (fun v ->
      let forbidden = Hashtbl.create 8 in
      let uncolored = ref 0 in
      View.iter_adj view v (fun w ->
          if colors.(w) >= 0 then Hashtbl.replace forbidden colors.(w) ()
          else incr uncolored);
      let available = ref [] in
      for c = palette_of v - 1 downto 0 do
        if not (Hashtbl.mem forbidden c) then available := c :: !available
      done;
      match !available with
      | [] -> invalid_arg "Distributed_coloring: palette exhausted"
      | choices ->
        let k = min (List.length choices) (!uncolored + 1) in
        proposal.(v) <- List.nth choices (Splitmix.int (stream_of v) k))
    pending;
  let still = ref [] in
  List.iter
    (fun v ->
      let clash = ref false in
      View.iter_adj view v (fun w ->
          if proposal.(w) >= 0 && proposal.(w) = proposal.(v) then clash := true);
      if !clash then still := v :: !still else colors.(v) <- proposal.(v))
    pending;
  List.iter (fun v -> proposal.(v) <- -1) pending;
  List.rev !still

let randomized_greedy ?(stage = Stage.coloring_greedy) ?max_rounds view plan =
  let n = View.n view in
  let max_rounds =
    match max_rounds with Some r -> r | None -> 64 + (16 * ceil_log2 (max n 2))
  in
  let colors = Array.make n (-1) in
  let proposal = Array.make n (-1) in
  let streams = Hashtbl.create 64 in
  let stream_of v =
    match Hashtbl.find_opt streams v with
    | Some s -> s
    | None ->
      let s = Rand_plan.node_stream plan ~stage ~node:v in
      Hashtbl.add streams v s;
      s
  in
  let palette =
    let best = ref 0 in
    View.iter_active view (fun v -> best := max !best (View.degree view v));
    !best + 1
  in
  let pending = ref (Array.to_list (View.active_nodes view)) in
  let rounds = ref 0 in
  while !pending <> [] && !rounds < max_rounds do
    incr rounds;
    pending :=
      propose_round view ~colors ~proposal
        ~palette_of:(fun v -> View.degree view v + 1)
        ~stream_of !pending
  done;
  { colors; palette; rounds = !rounds }

let h_partition_partial view ~degree_bound =
  if degree_bound < 0 then invalid_arg "Distributed_coloring.h_partition";
  let n = View.n view in
  let layer = Array.make n (-1) in
  let remaining = Array.make n false in
  let residual_degree = Array.make n 0 in
  View.iter_active view (fun v ->
      remaining.(v) <- true;
      residual_degree.(v) <- View.degree view v);
  let left = ref (View.count_active view) in
  let l = ref 0 in
  let stuck = ref false in
  while !left > 0 && not !stuck do
    let peel = ref [] in
    View.iter_active view (fun v ->
        if remaining.(v) && residual_degree.(v) <= degree_bound then
          peel := v :: !peel);
    match !peel with
    | [] -> stuck := true
    | batch ->
      List.iter
        (fun v ->
          layer.(v) <- !l;
          remaining.(v) <- false;
          decr left)
        batch;
      List.iter
        (fun v ->
          View.iter_adj view v (fun w ->
              if remaining.(w) then residual_degree.(w) <- residual_degree.(w) - 1))
        batch;
      incr l
  done;
  let core = Array.make n false in
  View.iter_active view (fun v -> if remaining.(v) then core.(v) <- true);
  (layer, !l, core)

let h_partition view ~degree_bound =
  let layer, count, core = h_partition_partial view ~degree_bound in
  if Array.exists (fun b -> b) core then None else Some (layer, count)

let layered ?(stage = Stage.coloring_layered) ?max_rounds_per_layer view plan
    ~degree_bound =
  match h_partition view ~degree_bound with
  | None -> None
  | Some (layer, layer_count) ->
    let n = View.n view in
    let max_rounds_per_layer =
      match max_rounds_per_layer with
      | Some r -> r
      | None -> 64 + (16 * ceil_log2 (max n 2))
    in
    let colors = Array.make n (-1) in
    let proposal = Array.make n (-1) in
    let streams = Hashtbl.create 64 in
    let stream_of v =
      match Hashtbl.find_opt streams v with
      | Some s -> s
      | None ->
        let s = Rand_plan.node_stream plan ~stage ~node:v in
        Hashtbl.add streams v s;
        s
    in
    let rounds = ref layer_count (* the peeling rounds themselves *) in
    (* Top layer first: when a layer is colored, all its neighbors in
       higher layers already are, and it has at most [degree_bound] such
       neighbors, so palette 0..degree_bound always has a free color. *)
    for l = layer_count - 1 downto 0 do
      let pending = ref [] in
      View.iter_active view (fun v -> if layer.(v) = l then pending := v :: !pending);
      let spent = ref 0 in
      while !pending <> [] && !spent < max_rounds_per_layer do
        incr spent;
        incr rounds;
        pending :=
          propose_round view ~colors ~proposal
            ~palette_of:(fun _ -> degree_bound + 1)
            ~stream_of !pending
      done
    done;
    Some { colors; palette = degree_bound + 1; rounds = !rounds }

let hybrid ?(stage = Stage.coloring_layered) ?max_rounds_per_layer view plan
    ~degree_bound =
  let layer, layer_count, core = h_partition_partial view ~degree_bound in
  let n = View.n view in
  let max_rounds_per_layer =
    match max_rounds_per_layer with
    | Some r -> r
    | None -> 64 + (16 * ceil_log2 (max n 2))
  in
  let colors = Array.make n (-1) in
  let proposal = Array.make n (-1) in
  let streams = Hashtbl.create 64 in
  let stream_of v =
    match Hashtbl.find_opt streams v with
    | Some s -> s
    | None ->
      let s = Rand_plan.node_stream plan ~stage ~node:v in
      Hashtbl.add streams v s;
      s
  in
  let rounds = ref layer_count in
  let color_group pending ~palette_of =
    let pending = ref pending in
    let spent = ref 0 in
    while !pending <> [] && !spent < max_rounds_per_layer do
      incr spent;
      incr rounds;
      pending := propose_round view ~colors ~proposal ~palette_of ~stream_of !pending
    done
  in
  (* Dense core first, with the full (deg+1) palette. *)
  let core_nodes = ref [] in
  View.iter_active view (fun v -> if core.(v) then core_nodes := v :: !core_nodes);
  let max_core_color = ref 0 in
  if !core_nodes <> [] then begin
    color_group !core_nodes ~palette_of:(fun v -> View.degree view v + 1);
    List.iter (fun v -> max_core_color := max !max_core_color colors.(v)) !core_nodes
  end;
  (* Peeled layers top-down: a peeled node has at most [degree_bound]
     neighbors in its own or higher layers (core included), so palette
     [0 .. degree_bound] always has a free color. *)
  for l = layer_count - 1 downto 0 do
    let pending = ref [] in
    View.iter_active view (fun v -> if layer.(v) = l then pending := v :: !pending);
    color_group !pending ~palette_of:(fun _ -> degree_bound + 1)
  done;
  { colors; palette = max (degree_bound + 1) (!max_core_color + 1);
    rounds = !rounds }

let planar ?stage view plan =
  match layered ?stage view plan ~degree_bound:7 with
  | Some outcome -> outcome
  | None -> hybrid ?stage view plan ~degree_bound:7
