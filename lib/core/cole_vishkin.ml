module Rooted = Mis_graph.Rooted

let lowest_differing_bit a b =
  let x = a lxor b in
  assert (x <> 0);
  let rec loop i = if (x lsr i) land 1 = 1 then i else loop (i + 1) in
  loop 0

let reduce_step ~own ~parent =
  let i = lowest_differing_bit own parent in
  (2 * i) + ((own lsr i) land 1)

(* The virtual parent color a root compares against: any value that differs
   from its own color. *)
let virtual_parent_color c = if c <> 0 then 0 else 1

let shift_root_color old = if old <> 0 then 0 else 1

let recolor ~own_old ~parent_new =
  let forbidden c = c = parent_new || c = own_old in
  if not (forbidden 0) then 0 else if not (forbidden 1) then 1 else 2

let ceil_log2 = Mis_util.Ids.ceil_log2

let iterations ~id_bound =
  if id_bound < 1 then invalid_arg "Cole_vishkin.iterations";
  (* One reduction maps colors < b to colors < 2*ceil(log2 b); iterate the
     bound down to 6 (the fixed point of the map). *)
  let rec loop b t =
    if b <= 6 then t else loop (2 * ceil_log2 b) (t + 1)
  in
  loop id_bound 0

let default_keep n = Array.make n true

let three_color ?keep ?schedule ~ids (t : Rooted.t) =
  let n = t.Rooted.n in
  let keep = match keep with Some k -> k | None -> default_keep n in
  if Array.length keep <> n then invalid_arg "Cole_vishkin: keep length";
  if Array.length ids <> n then invalid_arg "Cole_vishkin: ids length";
  let color = Array.make n (-1) in
  for v = 0 to n - 1 do
    if keep.(v) then begin
      if ids.(v) < 0 then invalid_arg "Cole_vishkin: negative id";
      color.(v) <- ids.(v)
    end
  done;
  let parent_kept v =
    let p = t.Rooted.parent.(v) in
    if p >= 0 && keep.(p) then p else -1
  in
  let max_color () =
    let best = ref 0 in
    for v = 0 to n - 1 do
      if keep.(v) && color.(v) > !best then best := color.(v)
    done;
    !best
  in
  let rounds = ref 0 in
  let iterate () =
    incr rounds;
    let next = Array.copy color in
    for v = 0 to n - 1 do
      if keep.(v) then begin
        let pc =
          match parent_kept v with
          | -1 -> virtual_parent_color color.(v)
          | p -> color.(p)
        in
        next.(v) <- reduce_step ~own:color.(v) ~parent:pc
      end
    done;
    Array.blit next 0 color 0 n
  in
  (* Bit-reduction: either the agreed fixed schedule, or until all colors
     are below 6. *)
  (match schedule with
  | Some count ->
    if count < 0 then invalid_arg "Cole_vishkin: schedule";
    for _ = 1 to count do
      iterate ()
    done
  | None ->
    while max_color () >= 6 do
      if !rounds > 128 then failwith "Cole_vishkin: reduction diverged";
      iterate ()
    done);
  if max_color () >= 6 then failwith "Cole_vishkin: schedule too short";
  (* Eliminate colors 5, 4, 3 with a shift-down before each removal. *)
  List.iter
    (fun target ->
      rounds := !rounds + 2;
      let old = Array.copy color in
      for v = 0 to n - 1 do
        if keep.(v) then
          color.(v) <-
            (match parent_kept v with
            | -1 -> shift_root_color old.(v)
            | p -> old.(p))
      done;
      for v = 0 to n - 1 do
        if keep.(v) && color.(v) = target then begin
          let parent_new =
            match parent_kept v with -1 -> -1 | p -> color.(p)
          in
          color.(v) <- recolor ~own_old:old.(v) ~parent_new
        end
      done)
    [ 5; 4; 3 ];
  (color, !rounds)

let mis_from_colors ?keep (t : Rooted.t) color =
  let n = t.Rooted.n in
  let keep = match keep with Some k -> k | None -> default_keep n in
  let kids = Rooted.children t in
  let in_mis = Array.make n false in
  let blocked v =
    let p = t.Rooted.parent.(v) in
    (p >= 0 && keep.(p) && in_mis.(p))
    || Array.exists (fun c -> keep.(c) && in_mis.(c)) kids.(v)
  in
  List.iter
    (fun cls ->
      for v = 0 to n - 1 do
        if keep.(v) && color.(v) = cls && not (blocked v) then in_mis.(v) <- true
      done)
    [ 0; 1; 2 ];
  in_mis

let mis ?keep ?schedule ~ids t =
  let color, rounds = three_color ?keep ?schedule ~ids t in
  (mis_from_colors ?keep t color, rounds + 3)
