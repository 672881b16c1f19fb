module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Check = Mis_graph.Check

type state = Absent | Alive | Crashed

(* Slot-keyed tables: slot numbers are already spread, so they hash to
   themselves and compare as ints, with no polymorphic primitives. *)
module Slot_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash u = u
end)

(* Adjacency is symmetric and kept across crashes. Slot [u]'s neighbours
   are the first [deg.(u)] entries of [nbrs.(u)], in an order fixed by the
   history of inserts and swap-removals; [pos.(u)] maps each neighbour to
   its index there, for O(1) membership and removal. *)
type t = {
  capacity : int;
  states : state array;
  nbrs : int array array;
  deg : int array;
  pos : int Slot_tbl.t array;
  mutable alive_count : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Dyn_graph.create: capacity must be >= 1";
  { capacity;
    states = Array.make capacity Absent;
    nbrs = Array.make capacity [||];
    deg = Array.make capacity 0;
    pos = Array.init capacity (fun _ -> Slot_tbl.create 4);
    alive_count = 0 }

let capacity t = t.capacity

let check_node t u name =
  if u < 0 || u >= t.capacity then
    invalid_arg (Printf.sprintf "Dyn_graph.%s: node %d out of range" name u)

let state t u =
  check_node t u "state";
  t.states.(u)

let alive t u =
  check_node t u "alive";
  t.states.(u) = Alive

let alive_count t = t.alive_count
let join t u =
  check_node t u "join";
  match t.states.(u) with
  | Absent ->
    t.states.(u) <- Alive;
    t.alive_count <- t.alive_count + 1;
    true
  | Alive | Crashed -> false

let mem_edge t u v =
  check_node t u "mem_edge";
  check_node t v "mem_edge";
  Slot_tbl.mem t.pos.(u) v

(* One direction of an edge: append [v] to [u]'s neighbours, or move
   [u]'s last neighbour into [v]'s place. *)
let push t u v =
  let d = t.deg.(u) in
  if d = Array.length t.nbrs.(u) then begin
    let grown = Array.make (max 4 (2 * d)) 0 in
    Array.blit t.nbrs.(u) 0 grown 0 d;
    t.nbrs.(u) <- grown
  end;
  t.nbrs.(u).(d) <- v;
  t.deg.(u) <- d + 1;
  Slot_tbl.add t.pos.(u) v d

let drop t u v =
  let i = Slot_tbl.find t.pos.(u) v in
  let last = t.deg.(u) - 1 in
  let w = t.nbrs.(u).(last) in
  t.nbrs.(u).(i) <- w;
  if w <> v then Slot_tbl.replace t.pos.(u) w i;
  Slot_tbl.remove t.pos.(u) v;
  t.deg.(u) <- last

let leave t u =
  check_node t u "leave";
  match t.states.(u) with
  | Alive ->
    for i = 0 to t.deg.(u) - 1 do
      drop t t.nbrs.(u).(i) u
    done;
    (* The slot keeps its neighbour array and its table's buckets, so a
       rejoin regrows neither. What stays held is each slot's largest
       past degree: bounded by the live graph's worst case. *)
    t.deg.(u) <- 0;
    Slot_tbl.clear t.pos.(u);
    t.states.(u) <- Absent;
    t.alive_count <- t.alive_count - 1;
    true
  | Absent | Crashed -> false

let crash t u =
  check_node t u "crash";
  match t.states.(u) with
  | Alive ->
    (* Links stay but stop counting as live. *)
    t.states.(u) <- Crashed;
    t.alive_count <- t.alive_count - 1;
    true
  | Absent | Crashed -> false

let insert_edge t u v =
  check_node t u "insert_edge";
  check_node t v "insert_edge";
  if u = v || t.states.(u) <> Alive || t.states.(v) <> Alive
     || Slot_tbl.mem t.pos.(u) v
  then false
  else begin
    push t u v;
    push t v u;
    true
  end

let delete_edge t u v =
  check_node t u "delete_edge";
  check_node t v "delete_edge";
  if u = v || t.states.(u) <> Alive || t.states.(v) <> Alive
     || not (Slot_tbl.mem t.pos.(u) v)
  then false
  else begin
    drop t u v;
    drop t v u;
    true
  end

let iter_adj_alive t u f =
  check_node t u "iter_adj_alive";
  for i = 0 to t.deg.(u) - 1 do
    let v = t.nbrs.(u).(i) in
    if t.states.(v) = Alive then f v
  done

let adj_alive_sorted t u =
  let acc = ref [] in
  iter_adj_alive t u (fun v -> acc := v :: !acc);
  let a = Array.of_list !acc in
  Array.sort Int.compare a;
  a

let alive_nodes t =
  let acc = ref [] in
  for u = t.capacity - 1 downto 0 do
    if t.states.(u) = Alive then acc := u :: !acc
  done;
  Array.of_list !acc

(* Whether an alive neighbour of [u] is in [set]. *)
let member_neighbor t set u =
  let a = t.nbrs.(u) and stop = t.deg.(u) in
  let hit = ref false and i = ref 0 in
  while (not !hit) && !i < stop do
    let v = a.(!i) in
    if set.(v) && t.states.(v) = Alive then hit := true;
    incr i
  done;
  !hit

(* The pass [Check.classify] makes over a CSR, made over the slots: stop
   at the first alive member with an alive member neighbour; note, but
   scan past, the first uncovered alive non-member, so that independence
   is reported ahead of maximality. *)
let classify t set =
  if Array.length set <> t.capacity then
    invalid_arg "Dyn_graph.classify: set length must equal capacity";
  let dependent = ref false and uncovered = ref false in
  let u = ref 0 in
  while (not !dependent) && !u < t.capacity do
    let x = !u in
    if t.states.(x) = Alive then begin
      if set.(x) then dependent := member_neighbor t set x
      else if not !uncovered then uncovered := not (member_neighbor t set x)
    end;
    incr u
  done;
  if !dependent then Check.Not_independent
  else if !uncovered then Check.Not_maximal
  else Check.Mis

(* The alive subgraph as a CSR. Edges are collected normalized (u < v) and
   sorted so the CSR is a deterministic function of the graph's contents,
   not of the adjacency order. The pairs are compared as ints, not with
   the polymorphic [compare]. *)
let live_view t =
  let acc = ref [] in
  for u = 0 to t.capacity - 1 do
    if t.states.(u) = Alive then
      iter_adj_alive t u (fun v -> if u < v then acc := (u, v) :: !acc)
  done;
  let edges = Array.of_list !acc in
  Array.sort
    (fun (a, b) (c, d) -> if a <> c then Int.compare a c else Int.compare b d)
    edges;
  let g = Graph.of_edge_array ~n:t.capacity edges in
  View.restrict ~nodes:(Array.init t.capacity (fun u -> t.states.(u) = Alive)) g
