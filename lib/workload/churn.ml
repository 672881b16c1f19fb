module Splitmix = Mis_util.Splitmix
module Geometry = Mis_graph.Geometry
module Event = Mis_dyn.Event

type params = {
  capacity : int;
  initial : int;
  batches : int;
  arrival_mean : float;
  lifetime_min : float;
  lifetime_alpha : float;
  crash_prob : float;
  flap_mean : float;
  flap_down : int;
  radius : float;
  geo : Geo.params;
}

let default =
  { capacity = 512;
    initial = 320;
    batches = 200;
    arrival_mean = 12.;
    lifetime_min = 2.;
    lifetime_alpha = 1.5;
    crash_prob = 0.1;
    flap_mean = 8.;
    flap_down = 2;
    radius = 60.;
    geo = Geo.campus }

let validate p =
  let fail fmt = Printf.ksprintf invalid_arg ("Churn.validate: " ^^ fmt) in
  if p.capacity < 1 then fail "capacity must be >= 1 (got %d)" p.capacity;
  if p.initial < 0 || p.initial > p.capacity then
    fail "initial must be in [0, capacity] (got %d)" p.initial;
  if p.batches < 0 then fail "batches must be >= 0 (got %d)" p.batches;
  if p.arrival_mean < 0. then
    fail "arrival_mean must be >= 0 (got %g)" p.arrival_mean;
  if p.lifetime_min < 1. then
    fail "lifetime_min must be >= 1 (got %g)" p.lifetime_min;
  if p.lifetime_alpha <= 0. then
    fail "lifetime_alpha must be > 0 (got %g)" p.lifetime_alpha;
  if p.crash_prob < 0. || p.crash_prob > 1. then
    fail "crash_prob must be in [0, 1] (got %g)" p.crash_prob;
  if p.flap_mean < 0. then fail "flap_mean must be >= 0 (got %g)" p.flap_mean;
  if p.flap_down < 1 then fail "flap_down must be >= 1 (got %d)" p.flap_down;
  if p.radius <= 0. then fail "radius must be > 0 (got %g)" p.radius

(* Pareto(alpha, x_min) by inversion, truncated to whole batches (>= 1). *)
let lifetime rng p =
  let u = Splitmix.float rng in
  let x = p.lifetime_min *. ((1. -. u) ** (-1. /. p.lifetime_alpha)) in
  (* A single stream spans at most the whole trace; the cap keeps the
     int conversion safe when the tail draw is astronomical. *)
  max 1 (int_of_float (Float.min x (float_of_int (p.batches + 1))))

(* [choose rng k pool] is [k] distinct elements of [pool], ascending.
   Partial Fisher-Yates on a copy, so the draw order (and hence the
   stream) is a pure function of the rng state. *)
let choose rng k pool =
  let a = Array.copy pool in
  let n = Array.length a in
  let k = min k n in
  for i = 0 to k - 1 do
    let j = i + Splitmix.int rng (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  let picked = Array.sub a 0 k in
  Array.sort compare picked;
  picked

let generate rng p =
  validate p;
  let points = Geo.sample rng p.geo ~n:p.capacity in
  (* Ground-truth connectivity: the unit-disk graph over the AP cloud.
     Every join/flap references these pairs only. *)
  let adj = Array.make p.capacity [] in
  Geometry.iter_threshold points ~radius:p.radius (fun _ u v ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v));
  Array.iteri (fun i l -> adj.(i) <- List.sort compare l) adj;
  let up = Array.make p.capacity false in
  let dead = Array.make p.capacity false in
  let expiry = Array.make p.capacity 0 in
  (* Flapped-down links, normalized u < v, mapped to the batch at which
     they come back. While a pair is here the edge is absent from the
     live graph, so joins must not re-attach it. *)
  let link_down : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let norm u v = if u < v then (u, v) else (v, u) in
  let join_event b node =
    let edges =
      List.filter
        (fun v -> up.(v) && not (Hashtbl.mem link_down (norm node v)))
        adj.(node)
    in
    up.(node) <- true;
    expiry.(node) <- b + lifetime rng p;
    Event.Node_join { node; edges }
  in
  (* Batch 0 bootstraps the initial cloud; joins apply in sequence, so
     ascending emission lets each node link to the ones before it. *)
  let all = Array.init p.capacity (fun i -> i) in
  let bootstrap =
    Array.to_list (choose rng p.initial all)
    |> List.map (fun node -> join_event 0 node)
  in
  let churn_batch b =
    let evs = ref [] in
    let emit e = evs := e :: !evs in
    (* 1. Links whose fade ends this batch come back — unless an
       endpoint went away meanwhile, in which case the flap is forgotten
       (a later join re-attaches the edge). *)
    let back =
      Hashtbl.fold (fun e t acc -> if t = b then e :: acc else acc)
        link_down []
      |> List.sort compare
    in
    List.iter
      (fun ((u, v) as e) ->
        Hashtbl.remove link_down e;
        if up.(u) && up.(v) then emit (Event.Edge_insert { u; v }))
      back;
    (* 2. Session expiries: crash-stop with probability [crash_prob],
       clean leave otherwise. *)
    for node = 0 to p.capacity - 1 do
      if up.(node) && expiry.(node) = b then begin
        up.(node) <- false;
        if Splitmix.float rng < p.crash_prob then begin
          dead.(node) <- true;
          emit (Event.Node_crash { node })
        end
        else emit (Event.Node_leave { node })
      end
    done;
    (* 3. Arrivals: departed (non-crashed) slots come back up. *)
    let free = ref [] in
    for node = p.capacity - 1 downto 0 do
      if (not up.(node)) && not dead.(node) then free := node :: !free
    done;
    let free = Array.of_list !free in
    let arrivals = Geo.poisson rng ~mean:p.arrival_mean in
    Array.iter
      (fun node -> emit (join_event b node))
      (choose rng arrivals free);
    (* 4. Link flaps: a Poisson number of currently-up links fade for
       [flap_down] batches. *)
    let live = ref [] in
    for u = 0 to p.capacity - 1 do
      if up.(u) then
        List.iter
          (fun v ->
            if u < v && up.(v) && not (Hashtbl.mem link_down (u, v)) then
              live := (u, v) :: !live)
          adj.(u)
    done;
    let live = Array.of_list (List.rev !live) in
    let flaps = Geo.poisson rng ~mean:p.flap_mean in
    Array.iter
      (fun (u, v) ->
        Hashtbl.replace link_down (u, v) (b + p.flap_down);
        emit (Event.Edge_delete { u; v }))
      (choose rng flaps live);
    List.rev !evs
  in
  bootstrap :: List.init p.batches (fun i -> churn_batch (i + 1))

let write_jsonl oc batches =
  List.iter
    (fun batch ->
      List.iter
        (fun ev ->
          output_string oc (Event.to_json ev);
          output_char oc '\n')
        batch;
      output_string oc Event.batch_marker;
      output_char oc '\n')
    batches
