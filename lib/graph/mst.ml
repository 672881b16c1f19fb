let prim ~n (e : Geometry.edges) =
  let m = Array.length e.w in
  (* CSR in edge order: node [x]'s slots [off.(x) .. off.(x + 1) - 1]
     hold the ids of its edges in array order (a self-loop twice). *)
  let off = Array.make (n + 1) 0 in
  for k = 0 to m - 1 do
    off.(e.u.(k) + 1) <- off.(e.u.(k) + 1) + 1;
    off.(e.v.(k) + 1) <- off.(e.v.(k) + 1) + 1
  done;
  for x = 1 to n do
    off.(x) <- off.(x) + off.(x - 1)
  done;
  let slot = Array.make (2 * m) 0 and fill = Array.sub off 0 n in
  for k = 0 to m - 1 do
    let a = e.u.(k) and b = e.v.(k) in
    slot.(fill.(a)) <- k;
    fill.(a) <- fill.(a) + 1;
    slot.(fill.(b)) <- k;
    fill.(b) <- fill.(b) + 1
  done;
  (* FIFO among equal weights: bias each pushed edge by an epsilon
     proportional to its push sequence number. The bias (< 1e-4 overall)
     only disambiguates ties for any real-world coordinate scale. *)
  let seq = ref 0 in
  let heap = Mis_util.Heap.create ~capacity:(2 * n) () in
  let push w u v =
    incr seq;
    Mis_util.Heap.push heap ~priority:(w +. (1e-12 *. float_of_int !seq)) ((u * n) + v)
  in
  let other x k = if e.u.(k) = x then e.v.(k) else e.u.(k) in
  let visited = Array.make n false in
  let edges = ref [] in
  for start = 0 to n - 1 do
    if not visited.(start) then begin
      visited.(start) <- true;
      for s = off.(start) to off.(start + 1) - 1 do
        let k = slot.(s) in
        push e.w.(k) start (other start k)
      done;
      while not (Mis_util.Heap.is_empty heap) do
        let _, code = Mis_util.Heap.pop_min heap in
        let u = code / n and v = code mod n in
        if not visited.(v) then begin
          visited.(v) <- true;
          edges := (u, v) :: !edges;
          for s = off.(v) to off.(v + 1) - 1 do
            let k = slot.(s) in
            let t = other v k in
            if not visited.(t) then push e.w.(k) v t
          done
        end
      done
    end
  done;
  List.rev !edges
