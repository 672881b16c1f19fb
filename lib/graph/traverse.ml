let bfs_from view s =
  let n = View.n view in
  let dist = Array.make n (-1) in
  let q = Mis_util.Int_queue.create ~capacity:(max 16 n) () in
  if not (View.node_active view s) then
    invalid_arg "Traverse.bfs_from: inactive source";
  dist.(s) <- 0;
  Mis_util.Int_queue.push q s;
  while not (Mis_util.Int_queue.is_empty q) do
    let u = Mis_util.Int_queue.pop q in
    View.iter_adj view u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Mis_util.Int_queue.push q v
        end)
  done;
  dist

let components view =
  let n = View.n view in
  let label = Array.make n (-1) in
  let q = Mis_util.Int_queue.create ~capacity:(max 16 n) () in
  let count = ref 0 in
  View.iter_active view (fun s ->
      if label.(s) < 0 then begin
        let c = !count in
        incr count;
        label.(s) <- c;
        Mis_util.Int_queue.push q s;
        while not (Mis_util.Int_queue.is_empty q) do
          let u = Mis_util.Int_queue.pop q in
          View.iter_adj view u (fun v ->
              if label.(v) < 0 then begin
                label.(v) <- c;
                Mis_util.Int_queue.push q v
              end)
        done
      end);
  (label, !count)

let component_members label count =
  let sizes = Array.make count 0 in
  Array.iter (fun c -> if c >= 0 then sizes.(c) <- sizes.(c) + 1) label;
  let members = Array.init count (fun c -> Array.make sizes.(c) 0) in
  let cursor = Array.make count 0 in
  Array.iteri
    (fun u c ->
      if c >= 0 then begin
        members.(c).(cursor.(c)) <- u;
        cursor.(c) <- cursor.(c) + 1
      end)
    label;
  members

let eccentricity view u =
  let dist = bfs_from view u in
  Array.fold_left max 0 dist

let diameter_exact view =
  let best = ref 0 in
  View.iter_active view (fun u ->
      let e = eccentricity view u in
      if e > !best then best := e);
  !best

let count_usable_edges view =
  let m = Graph.m (View.graph view) in
  let c = ref 0 in
  for e = 0 to m - 1 do
    if View.usable_edge view e then incr c
  done;
  !c

let is_forest view =
  let _, count = components view in
  count_usable_edges view = View.count_active view - count

let is_tree view =
  View.count_active view > 0 && snd (components view) = 1 && is_forest view

let bipartition view =
  let n = View.n view in
  let side = Array.make n (-1) in
  let q = Mis_util.Int_queue.create ~capacity:(max 16 n) () in
  let ok = ref true in
  View.iter_active view (fun s ->
      if !ok && side.(s) < 0 then begin
        side.(s) <- 0;
        Mis_util.Int_queue.push q s;
        while !ok && not (Mis_util.Int_queue.is_empty q) do
          let u = Mis_util.Int_queue.pop q in
          View.iter_adj view u (fun v ->
              if side.(v) < 0 then begin
                side.(v) <- 1 - side.(u);
                Mis_util.Int_queue.push q v
              end
              else if side.(v) = side.(u) then ok := false)
        done
      end);
  if !ok then Some side else None
