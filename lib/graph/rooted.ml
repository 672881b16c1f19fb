type t = { n : int; parent : int array }

let of_parents parent =
  let n = Array.length parent in
  Array.iteri
    (fun i p ->
      if p = i then invalid_arg "Rooted.of_parents: self-parent";
      if p < -1 || p >= n then invalid_arg "Rooted.of_parents: parent out of range")
    parent;
  (* Cycle detection: each node must reach a root in at most n steps. *)
  let state = Array.make n 0 (* 0 unknown, 1 visiting, 2 done *) in
  let rec walk i =
    if state.(i) = 1 then invalid_arg "Rooted.of_parents: cycle";
    if state.(i) = 0 then begin
      state.(i) <- 1;
      if parent.(i) >= 0 then walk parent.(i);
      state.(i) <- 2
    end
  in
  for i = 0 to n - 1 do
    walk i
  done;
  { n; parent = Array.copy parent }

let of_tree g ~root =
  if not (Traverse.is_tree (View.full g)) then
    invalid_arg "Rooted.of_tree: not a tree";
  let n = Graph.n g in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  let q = Mis_util.Int_queue.create ~capacity:n () in
  seen.(root) <- true;
  Mis_util.Int_queue.push q root;
  while not (Mis_util.Int_queue.is_empty q) do
    let u = Mis_util.Int_queue.pop q in
    Graph.iter_adj g u (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          parent.(v) <- u;
          Mis_util.Int_queue.push q v
        end)
  done;
  { n; parent }

let children t =
  let counts = Array.make t.n 0 in
  Array.iter (fun p -> if p >= 0 then counts.(p) <- counts.(p) + 1) t.parent;
  let kids = Array.init t.n (fun i -> Array.make counts.(i) 0) in
  let cursor = Array.make t.n 0 in
  Array.iteri
    (fun i p ->
      if p >= 0 then begin
        kids.(p).(cursor.(p)) <- i;
        cursor.(p) <- cursor.(p) + 1
      end)
    t.parent;
  kids

let to_graph t =
  let acc = ref [] in
  Array.iteri (fun i p -> if p >= 0 then acc := (i, p) :: !acc) t.parent;
  Graph.of_edges ~n:t.n !acc

let restrict t ~keep =
  if Array.length keep <> t.n then invalid_arg "Rooted.restrict: mask length";
  let parent =
    Array.mapi
      (fun i p ->
        if not keep.(i) then -1
        else if p >= 0 && keep.(p) then p
        else -1)
      t.parent
  in
  { n = t.n; parent }
