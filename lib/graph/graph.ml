type t = {
  n : int;
  off : int array;        (* length n+1: CSR row offsets *)
  adj : int array;        (* length 2m: neighbor of each arc *)
  adj_edge : int array;   (* length 2m: undirected edge id of each arc *)
  edge_u : int array;     (* length m: smaller endpoint *)
  edge_v : int array;     (* length m: larger endpoint *)
}

let n t = t.n
let m t = Array.length t.edge_u

(* Range and self-loop checks ride the degree count; duplicates are
   found after the fill, in one pass over the finished rows that stamps
   each neighbour with the row it was seen in, so no edge is hashed. The
   stamps reuse [deg], dead once the offsets are known. An input with
   several faults reports a range or self-loop fault ahead of any
   duplicate. *)
let of_edge_array ~n edges =
  let m = Array.length edges in
  let deg = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range";
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + deg.(i)
  done;
  let cursor = Array.sub off 0 n in
  let adj = Array.make (2 * m) 0 and adj_edge = Array.make (2 * m) 0 in
  let edge_u = Array.make m 0 and edge_v = Array.make m 0 in
  Array.iteri
    (fun e (u, v) ->
      edge_u.(e) <- min u v;
      edge_v.(e) <- max u v;
      adj.(cursor.(u)) <- v;
      adj_edge.(cursor.(u)) <- e;
      cursor.(u) <- cursor.(u) + 1;
      adj.(cursor.(v)) <- u;
      adj_edge.(cursor.(v)) <- e;
      cursor.(v) <- cursor.(v) + 1)
    edges;
  let stamp = deg in
  Array.fill stamp 0 n (-1);
  for u = 0 to n - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      let v = adj.(i) in
      if stamp.(v) = u then invalid_arg "Graph.of_edges: duplicate edge";
      stamp.(v) <- u
    done
  done;
  { n; off; adj; adj_edge; edge_u; edge_v }

let of_edges ~n edges = of_edge_array ~n (Array.of_list edges)

(* Direct CSR construction for attachment-order trees: node i > 0 hangs
   off parents.(i) < i, so the input is a simple acyclic tree by
   construction and the duplicate-check table, the edge tuple array and
   all intermediate lists of [of_edge_array] can be skipped — only O(n)
   int arrays are ever live. Edge i-1 is (parents.(i), i) and arcs are
   pushed in (child, parent) order, exactly what
   [of_edge_array ~n [| (1, parents.(1)); (2, parents.(2)); ... |]]
   would produce, so the two constructors are interchangeable bit for
   bit. *)
let of_parents parents =
  let n = Array.length parents in
  if n = 0 then invalid_arg "Graph.of_parents: empty";
  if parents.(0) <> -1 then invalid_arg "Graph.of_parents: parents.(0)";
  for i = 1 to n - 1 do
    let p = parents.(i) in
    if p < 0 || p >= i then
      invalid_arg "Graph.of_parents: parents.(i) must lie in [0, i)"
  done;
  let m = n - 1 in
  let deg = Array.make n 0 in
  for i = 1 to n - 1 do
    deg.(i) <- deg.(i) + 1;
    let p = parents.(i) in
    deg.(p) <- deg.(p) + 1
  done;
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + deg.(i)
  done;
  let cursor = Array.sub off 0 n in
  let adj = Array.make (2 * m) 0 and adj_edge = Array.make (2 * m) 0 in
  let edge_u = Array.make m 0 and edge_v = Array.make m 0 in
  for e = 0 to m - 1 do
    let u = e + 1 in
    let v = parents.(u) in
    edge_u.(e) <- v;
    edge_v.(e) <- u;
    adj.(cursor.(u)) <- v;
    adj_edge.(cursor.(u)) <- e;
    cursor.(u) <- cursor.(u) + 1;
    adj.(cursor.(v)) <- u;
    adj_edge.(cursor.(v)) <- e;
    cursor.(v) <- cursor.(v) + 1
  done;
  { n; off; adj; adj_edge; edge_u; edge_v }

let degree t u = t.off.(u + 1) - t.off.(u)

let max_degree t =
  let best = ref 0 in
  for u = 0 to t.n - 1 do
    if degree t u > !best then best := degree t u
  done;
  !best

let edge_endpoints t e = (t.edge_u.(e), t.edge_v.(e))

let edges t = Array.init (m t) (fun e -> (t.edge_u.(e), t.edge_v.(e)))

let iter_adj t u f =
  for i = t.off.(u) to t.off.(u + 1) - 1 do
    f t.adj.(i)
  done

let iter_adj_e t u f =
  for i = t.off.(u) to t.off.(u + 1) - 1 do
    f t.adj.(i) t.adj_edge.(i)
  done

let mem_edge t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then false
  else begin
    (* Scan the smaller adjacency list. *)
    let a, b = if degree t u <= degree t v then (u, v) else (v, u) in
    let found = ref false in
    iter_adj t a (fun w -> if w = b then found := true);
    !found
  end

let neighbors t u = Array.sub t.adj t.off.(u) (degree t u)

let csr_off t = t.off
let csr_adj t = t.adj
let csr_adj_edge t = t.adj_edge
