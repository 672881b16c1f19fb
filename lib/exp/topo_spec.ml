module Splitmix = Mis_util.Splitmix

let names =
  [ "binary:depth=10"; "kary:branch=3,depth=4"; "alternating:branch=10,depth=5";
    "path:n=32"; "star:n=32"; "spider:legs=5,len=4"; "caterpillar:spine=8,legs=2";
    "prufer:n=64,seed=1"; "prefattach:n=64,seed=1"; "grid:w=8,h=8";
    "evencycle:n=16"; "hypercube:dim=6"; "completebipartite:left=4,right=6";
    "doublestar:left=5,right=9"; "randombipartite:left=32,right=32,p=0.05,seed=1";
    "trigrid:w=8,h=8"; "wheel:n=16"; "cycle:n=16"; "fan:n=16";
    "outerplanar:n=32,seed=1"; "clique:n=16"; "cone:k=8"; "dartmouth:seed=1";
    "nyc:seed=1"; "nyc-small:seed=1"; "file:path=graph.edges" ]

(* [name:key=value,...] as [(name, [(key, value)])]; a token without
   [=] is an error. *)
let split spec =
  match String.index_opt spec ':' with
  | None -> Ok (spec, [])
  | Some i ->
    let name = String.sub spec 0 i in
    let tokens =
      String.split_on_char ',' (String.sub spec (i + 1) (String.length spec - i - 1))
    in
    List.fold_right
      (fun kv acc ->
        match (acc, String.index_opt kv '=') with
        | Error _, _ -> acc
        | Ok _, None -> Error (Printf.sprintf "%s: %S is not key=value" name kv)
        | Ok (_, pairs), Some j ->
          Ok
            ( name,
              (String.sub kv 0 j, String.sub kv (j + 1) (String.length kv - j - 1))
              :: pairs ))
      tokens (Ok (name, []))

(* A topology's keys, and their defaults, are those of its [names] entry;
   a default that reads as an int makes the key an integer, one that
   reads as a float a number, anything else a string. *)
let check_args name args =
  let entry =
    List.find_map
      (fun e ->
        match split e with
        | Ok (n, defaults) when n = name -> Some defaults
        | _ -> None)
      names
  in
  match entry with
  | None -> Error (Printf.sprintf "unknown topology %S" name)
  | Some defaults ->
    let bad (key, v) =
      match List.assoc_opt key defaults with
      | None ->
        Some
          (Printf.sprintf "%s: unknown key %S (keys: %s)" name key
             (String.concat ", " (List.map fst defaults)))
      | Some d when int_of_string_opt d <> None && int_of_string_opt v = None ->
        Some (Printf.sprintf "%s: %s=%S is not an integer" name key v)
      | Some d when float_of_string_opt d <> None && float_of_string_opt v = None ->
        Some (Printf.sprintf "%s: %s=%S is not a number" name key v)
      | Some _ -> None
    in
    (match List.find_map bad args with
    | Some e -> Error e
    | None -> Ok defaults)

let parse spec =
  let ( let* ) = Result.bind in
  let* name, args = split spec in
  let* defaults = check_args name args in
  let value key =
    match List.assoc_opt key args with
    | Some v -> v
    | None -> List.assoc key defaults
  in
  let int key = int_of_string (value key) in
  let flt key = float_of_string (value key) in
  let rng () = Splitmix.of_seed (int "seed") in
  match name with
  | "binary" ->
    Ok (Mis_workload.Trees.complete_kary ~branch:2 ~depth:(int "depth"))
  | "kary" ->
    Ok
      (Mis_workload.Trees.complete_kary ~branch:(int "branch")
         ~depth:(int "depth"))
  | "alternating" ->
    Ok
      (Mis_workload.Trees.alternating ~branch:(int "branch")
         ~depth:(int "depth"))
  | "path" -> Ok (Mis_workload.Trees.path (int "n"))
  | "star" -> Ok (Mis_workload.Trees.star (int "n"))
  | "spider" ->
    Ok (Mis_workload.Trees.spider ~legs:(int "legs") ~leg_length:(int "len"))
  | "caterpillar" ->
    Ok
      (Mis_workload.Trees.caterpillar ~spine:(int "spine")
         ~legs_per_node:(int "legs"))
  | "prufer" -> Ok (Mis_workload.Trees.random_prufer (rng ()) ~n:(int "n"))
  | "prefattach" ->
    Ok (Mis_workload.Trees.preferential_attachment (rng ()) ~n:(int "n"))
  | "grid" ->
    Ok (Mis_workload.Bipartite.grid ~width:(int "w") ~height:(int "h"))
  | "evencycle" -> Ok (Mis_workload.Bipartite.even_cycle (int "n"))
  | "hypercube" -> Ok (Mis_workload.Bipartite.hypercube ~dim:(int "dim"))
  | "completebipartite" ->
    Ok
      (Mis_workload.Bipartite.complete_bipartite ~left:(int "left")
         ~right:(int "right"))
  | "doublestar" ->
    Ok
      (Mis_workload.Bipartite.double_star ~left_leaves:(int "left")
         ~right_leaves:(int "right"))
  | "randombipartite" ->
    Ok
      (Mis_workload.Bipartite.random_connected (rng ()) ~left:(int "left")
         ~right:(int "right") ~p:(flt "p"))
  | "trigrid" ->
    Ok
      (Mis_workload.Planar.triangular_grid ~width:(int "w")
         ~height:(int "h"))
  | "wheel" -> Ok (Mis_workload.Planar.wheel (int "n"))
  | "cycle" -> Ok (Mis_workload.Planar.cycle (int "n"))
  | "fan" -> Ok (Mis_workload.Planar.fan_triangulation (int "n"))
  | "outerplanar" ->
    Ok (Mis_workload.Planar.random_outerplanar (rng ()) ~n:(int "n"))
  | "clique" -> Ok (Mis_workload.Special.clique (int "n"))
  | "cone" -> Ok (Mis_workload.Special.cone ~k:(int "k"))
  | "file" -> (
    match List.assoc_opt "path" args with
    | None -> Error "file topology needs path=..., e.g. file:path=g.edges"
    | Some path -> Mis_graph.Io.read_edge_list ~path)
  | "dartmouth" -> Ok (Mis_workload.Real_world.dartmouth_like ~seed:(int "seed"))
  | "nyc" -> Ok (Mis_workload.Real_world.nyc_like ~seed:(int "seed"))
  | "nyc-small" ->
    Ok (Mis_workload.Real_world.nyc_like_small ~seed:(int "seed"))
  | other -> Error (Printf.sprintf "unknown topology %S" other)

let parse spec =
  match parse spec with
  | exception Invalid_argument msg -> Error msg
  | exception Failure msg -> Error msg
  | result -> result
