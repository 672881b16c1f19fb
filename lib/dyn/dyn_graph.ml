module Check = Mis_graph.Check

type state = Absent | Alive | Crashed

(* Adjacency is symmetric and kept across crashes. Slot [u]'s neighbours
   are the first [deg.(u)] entries of [nbrs.(u)], in an order fixed by the
   history of inserts and swap-removals; [twin.(u).(i)] is the index of
   [u] in the list of its [i]-th neighbour, so either end of a link finds
   the other end's entry without a search. *)
type t = {
  capacity : int;
  states : state array;
  nbrs : int array array;
  twin : int array array;
  deg : int array;
  mutable alive_count : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Dyn_graph.create: capacity must be >= 1";
  { capacity;
    states = Array.make capacity Absent;
    nbrs = Array.make capacity [||];
    twin = Array.make capacity [||];
    deg = Array.make capacity 0;
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
let deg t u = t.deg.(u)
let nbr t u i = t.nbrs.(u).(i)

let join t u =
  check_node t u "join";
  match t.states.(u) with
  | Absent ->
    t.states.(u) <- Alive;
    t.alive_count <- t.alive_count + 1;
    true
  | Alive | Crashed -> false

(* The last index below [i + 1] where [a] holds [x], or -1. *)
let rec index_of (a : int array) x i =
  if i < 0 || a.(i) = x then i else index_of a x (i - 1)

(* The index of [v] in [u]'s list, or -1, scanning whichever of the two
   lists is shorter. *)
let find t u v =
  if t.deg.(u) <= t.deg.(v) then index_of t.nbrs.(u) v (t.deg.(u) - 1)
  else
    let j = index_of t.nbrs.(v) u (t.deg.(v) - 1) in
    if j < 0 then -1 else t.twin.(v).(j)

let mem_edge t u v =
  check_node t u "mem_edge";
  check_node t v "mem_edge";
  find t u v >= 0

(* Make room for one more entry in [u]'s list. *)
let reserve t u =
  let d = t.deg.(u) in
  if d = Array.length t.nbrs.(u) then begin
    let grow a =
      let b = Array.make (max 4 (2 * d)) 0 in
      Array.blit a 0 b 0 d;
      b
    in
    t.nbrs.(u) <- grow t.nbrs.(u);
    t.twin.(u) <- grow t.twin.(u)
  end

(* Swap-removal of entry [i] from [u]'s list: the last entry moves into
   its place, and the moved link's far end learns the new index. *)
let remove_at t u i =
  let last = t.deg.(u) - 1 in
  if i < last then begin
    let w = t.nbrs.(u).(last) and j = t.twin.(u).(last) in
    t.nbrs.(u).(i) <- w;
    t.twin.(u).(i) <- j;
    t.twin.(w).(j) <- i
  end;
  t.deg.(u) <- last

let leave t u =
  check_node t u "leave";
  match t.states.(u) with
  | Alive ->
    (* Removing [u] from a neighbour's list never moves an entry of
       [u]'s own, so its twins stay valid through the loop. *)
    for i = 0 to t.deg.(u) - 1 do
      remove_at t t.nbrs.(u).(i) t.twin.(u).(i)
    done;
    (* The slot keeps its arrays, so a rejoin regrows neither. What stays
       held is each slot's largest past degree: bounded by the live
       graph's worst case. *)
    t.deg.(u) <- 0;
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
  if u = v || t.states.(u) <> Alive || t.states.(v) <> Alive || find t u v >= 0
  then false
  else begin
    reserve t u;
    reserve t v;
    let du = t.deg.(u) and dv = t.deg.(v) in
    t.nbrs.(u).(du) <- v;
    t.twin.(u).(du) <- dv;
    t.nbrs.(v).(dv) <- u;
    t.twin.(v).(dv) <- du;
    t.deg.(u) <- du + 1;
    t.deg.(v) <- dv + 1;
    true
  end

let delete_edge t u v =
  check_node t u "delete_edge";
  check_node t v "delete_edge";
  let i =
    if u = v || t.states.(u) <> Alive || t.states.(v) <> Alive then -1
    else find t u v
  in
  if i < 0 then false
  else begin
    (* [u]'s side first: the order of the swap-removals fixes the lists'
       order, which the dirty order follows. It moves no entry of [v]'s
       list, so [j] stays valid. *)
    let j = t.twin.(u).(i) in
    remove_at t u i;
    remove_at t v j;
    true
  end

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
