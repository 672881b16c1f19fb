type point = { x : float; y : float }

type edges = { w : float array; u : int array; v : int array }

let dist a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let bounding_box points =
  if Array.length points = 0 then invalid_arg "Geometry.bounding_box: empty";
  let p = points.(0) in
  let lx = ref p.x and ly = ref p.y and hx = ref p.x and hy = ref p.y in
  for i = 0 to Array.length points - 1 do
    let p = points.(i) in
    lx := Float.min !lx p.x;
    ly := Float.min !ly p.y;
    hx := Float.max !hx p.x;
    hy := Float.max !hy p.y
  done;
  ({ x = !lx; y = !ly }, { x = !hx; y = !hy })

(* Points grouped by grid cell of side [radius]. Point [i] lies in cell
   [cell.(i)]; the points of cell [c], ascending, are
   [members.(off.(c)) .. members.(off.(c + 1) - 1)]; and
   [nb.(9 * c + 3 * (1 - dx) + (1 - dy))] is the cell at offset
   [(dx, dy)] from [c], or -1 if no point lies there. Cells are numbered
   in [(x, y)] order and their int keys are compared as pairs, never
   packed, so they are exact at any radius. *)
type grid = { cell : int array; off : int array; members : int array; nb : int array }

let grid points ~radius =
  let n = Array.length points in
  let lo, _ = bounding_box points in
  let px = Array.init n (fun i -> int_of_float ((points.(i).x -. lo.x) /. radius))
  and py = Array.init n (fun i -> int_of_float ((points.(i).y -. lo.y) /. radius)) in
  let members = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Int.compare px.(a) px.(b) in
      if c <> 0 then c
      else
        let c = Int.compare py.(a) py.(b) in
        if c <> 0 then c else Int.compare a b)
    members;
  let cell = Array.make n 0 and off = Array.make (n + 1) n in
  let kx = Array.make n 0 and ky = Array.make n 0 and cells = ref 0 in
  for k = 0 to n - 1 do
    let a = members.(k) in
    let c = !cells - 1 in
    if c < 0 || px.(a) <> kx.(c) || py.(a) <> ky.(c) then begin
      kx.(!cells) <- px.(a);
      ky.(!cells) <- py.(a);
      off.(!cells) <- k;
      incr cells
    end;
    cell.(a) <- !cells - 1
  done;
  let find x y =
    let lo = ref 0 and hi = ref !cells in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if kx.(mid) < x || (kx.(mid) = x && ky.(mid) < y) then lo := mid + 1
      else hi := mid
    done;
    if !lo < !cells && kx.(!lo) = x && ky.(!lo) = y then !lo else -1
  in
  let nb = Array.make (9 * !cells) (-1) in
  for c = 0 to !cells - 1 do
    for dx = 1 downto -1 do
      for dy = 1 downto -1 do
        nb.((9 * c) + (3 * (1 - dx)) + (1 - dy)) <- find (kx.(c) + dx) (ky.(c) + dy)
      done
    done
  done;
  { cell; off; members; nb }

(* The canonical order: [i] descending, neighbour cells from offset
   (1, 1) down to (-1, -1), each cell's points [j > i] ascending. *)
let scan points ~radius g f =
  for i = Array.length points - 1 downto 0 do
    let p = points.(i) and base = 9 * g.cell.(i) in
    for s = base to base + 8 do
      let c = g.nb.(s) in
      if c >= 0 then
        for k = g.off.(c) to g.off.(c + 1) - 1 do
          let j = g.members.(k) in
          if j > i then begin
            let d = dist p points.(j) in
            if d <= radius then f d i j
          end
        done
    done
  done

let iter_threshold points ~radius f =
  if radius <= 0. then invalid_arg "Geometry.iter_threshold: radius";
  if Array.length points > 0 then scan points ~radius (grid points ~radius) f

let threshold_edges points ~radius =
  let m = ref 0 in
  iter_threshold points ~radius (fun _ _ _ -> incr m);
  let w = Array.create_float !m and u = Array.make !m 0 and v = Array.make !m 0 in
  let k = ref 0 in
  iter_threshold points ~radius (fun d i j ->
      w.(!k) <- d;
      u.(!k) <- i;
      v.(!k) <- j;
      incr k);
  { w; u; v }
