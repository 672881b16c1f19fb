module View = Mis_graph.View
module Graph = Mis_graph.Graph

(* The message engine's compile: the active-slot maps and the CSR
   neighbor index over slots, numbered in index order with each node's
   neighbors in view order. [Runtime.Engine] adds neighbor id arrays,
   node contexts and message buffers on top, and its FIFO delivery order
   follows this numbering. [Kernel] numbers its own slots (in BFS order,
   which no kernel result depends on) and shares only the ids check. *)

type t = {
  c_view : View.t;
  n : int;
  ids : int array;
  active : int array;  (* slot -> node index *)
  slot : int array;  (* node index -> slot, or -1 *)
  (* CSR adjacency over slots: the slots of the neighbors of
     [active.(s)], in view iteration order, live at
     [adj_slot.(adj_off.(s)) .. adj_slot.(adj_off.(s+1) - 1)]. *)
  adj_off : int array;
  adj_slot : int array;
}

let[@inline] on mask i = match mask with None -> true | Some a -> a.(i)

(* The view's adjacency filter ([View.iter_adj_e]) on graph CSR entry
   [i]; [adj_edge] is read only under an edge mask. *)
let[@inline] usable ~adj ~adj_edge ~nodes ~edges i =
  (match edges with None -> true | Some m -> m.(adj_edge.(i)))
  && on nodes adj.(i)

(* The length first, then the ids of the active nodes, checked by
   sorting a copy; the identity default is distinct by construction. *)
let check_ids ~n ids active =
  if Array.length ids <> n then invalid_arg "Runtime.run: ids length";
  let a = Array.map (fun u -> ids.(u)) active in
  Array.sort Int.compare a;
  for i = 1 to Array.length a - 1 do
    if a.(i) = a.(i - 1) then invalid_arg "Runtime.run: duplicate ids"
  done

(* Closure-free passes over the graph's CSR: number the active nodes,
   count each one's usable entries, then fill their slots. *)
let compile ?ids view =
  let n = View.n view in
  let g = View.graph view in
  let off = Graph.csr_off g and adj = Graph.csr_adj g in
  let adj_edge = Graph.csr_adj_edge g in
  let nodes = View.node_mask view and edges = View.edge_mask view in
  let slot = Array.make n (-1) in
  let nslots = ref 0 in
  for u = 0 to n - 1 do
    if on nodes u then begin
      slot.(u) <- !nslots;
      incr nslots
    end
  done;
  let nslots = !nslots in
  let active = Array.make nslots 0 in
  let adj_off = Array.make (nslots + 1) 0 in
  for u = 0 to n - 1 do
    let s = slot.(u) in
    if s >= 0 then begin
      active.(s) <- u;
      let d = ref 0 in
      for i = off.(u) to off.(u + 1) - 1 do
        if usable ~adj ~adj_edge ~nodes ~edges i then incr d
      done;
      adj_off.(s + 1) <- adj_off.(s) + !d
    end
  done;
  let ids =
    match ids with
    | Some a ->
      check_ids ~n a active;
      a
    | None -> Array.init n Fun.id
  in
  let adj_slot = Array.make adj_off.(nslots) 0 in
  Array.iteri
    (fun s u ->
      let k = ref adj_off.(s) in
      for i = off.(u) to off.(u + 1) - 1 do
        if usable ~adj ~adj_edge ~nodes ~edges i then begin
          adj_slot.(!k) <- slot.(adj.(i));
          incr k
        end
      done)
    active;
  { c_view = view; n; ids; active; slot; adj_off; adj_slot }

let view t = t.c_view
let deg t s = t.adj_off.(s + 1) - t.adj_off.(s)
