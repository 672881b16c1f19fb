module Splitmix = Mis_util.Splitmix

type adversary = round:int -> src:int -> dst:int -> bool

type t = {
  seed : int;
  drop : float;
  edge_drop : (src:int -> dst:int -> float) option;
  crashes : (int * int) list;
  max_delay : int;
  adversary : adversary option;
}

let none =
  { seed = 0; drop = 0.; edge_drop = None; crashes = []; max_delay = 0;
    adversary = None }

let create ?(seed = 0) ?(drop = 0.) ?edge_drop ?(crashes = []) ?(max_delay = 0)
    ?adversary () =
  if not (drop >= 0. && drop <= 1.) then
    invalid_arg "Fault.create: drop must be in [0, 1]";
  if max_delay < 0 then invalid_arg "Fault.create: max_delay must be >= 0";
  let seen = Hashtbl.create (List.length crashes) in
  List.iter
    (fun (u, r) ->
      if u < 0 then invalid_arg "Fault.create: crash node must be >= 0";
      if r < 0 then invalid_arg "Fault.create: crash round must be >= 0";
      if Hashtbl.mem seen u then
        invalid_arg "Fault.create: node scheduled to crash twice";
      Hashtbl.add seen u ())
    crashes;
  { seed; drop; edge_drop; crashes; max_delay; adversary }

let is_none t =
  t.drop = 0. && t.edge_drop = None && t.crashes = [] && t.max_delay = 0
  && t.adversary = None

let max_delay t = t.max_delay
let adversary t = t.adversary

let drop_prob t ~src ~dst =
  match t.edge_drop with Some f -> f ~src ~dst | None -> t.drop

let crash_rounds t ~n =
  let a = Array.make n max_int in
  List.iter
    (fun (u, r) ->
      (* Negative/duplicate nodes are already rejected by [create]; the
         upper bound depends on [n] and so can only be checked here. *)
      if u >= n then invalid_arg "Fault.crash_rounds: node out of range";
      a.(u) <- r)
    t.crashes;
  a

(* Keyed streams: the [kind] tag separates the drop and delay draws of the
   same message so they are statistically independent. *)
let stream t ~kind ~round ~src ~dst ~seq =
  Splitmix.stream (Int64.of_int t.seed) [ 0xFA17; kind; round; src; dst; seq ]

let drop_roll t ~round ~src ~dst ~seq =
  Splitmix.float (stream t ~kind:1 ~round ~src ~dst ~seq)

let delay_roll t ~round ~src ~dst ~seq =
  if t.max_delay = 0 then 0
  else Splitmix.int (stream t ~kind:2 ~round ~src ~dst ~seq) (t.max_delay + 1)
