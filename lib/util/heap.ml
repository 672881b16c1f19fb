type t = {
  mutable prio : float array;
  mutable item : int array;
  mutable len : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { prio = Array.make capacity 0.; item = Array.make capacity 0; len = 0 }

let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.prio in
  let prio = Array.make (2 * cap) 0. and item = Array.make (2 * cap) 0 in
  Array.blit t.prio 0 prio 0 t.len;
  Array.blit t.item 0 item 0 t.len;
  t.prio <- prio;
  t.item <- item

let swap t i j =
  let p = t.prio.(i) and x = t.item.(i) in
  t.prio.(i) <- t.prio.(j);
  t.item.(i) <- t.item.(j);
  t.prio.(j) <- p;
  t.item.(j) <- x

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.prio.(i) < t.prio.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.prio.(l) < t.prio.(!smallest) then smallest := l;
  if r < t.len && t.prio.(r) < t.prio.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~priority x =
  if t.len = Array.length t.prio then grow t;
  t.prio.(t.len) <- priority;
  t.item.(t.len) <- x;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let peek_min t =
  if t.len = 0 then invalid_arg "Heap.peek_min: empty";
  (t.prio.(0), t.item.(0))

let pop_min t =
  let res = peek_min t in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.prio.(0) <- t.prio.(t.len);
    t.item.(0) <- t.item.(t.len);
    sift_down t 0
  end;
  res
