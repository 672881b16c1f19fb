module Json = Mis_obs.Json

type t =
  | Node_join of { node : int; edges : int list }
  | Node_leave of { node : int }
  | Edge_insert of { u : int; v : int }
  | Edge_delete of { u : int; v : int }
  | Node_crash of { node : int }

let kind = function
  | Node_join _ -> "node_join"
  | Node_leave _ -> "node_leave"
  | Edge_insert _ -> "edge_insert"
  | Edge_delete _ -> "edge_delete"
  | Node_crash _ -> "node_crash"

let to_json = function
  | Node_join { node; edges } ->
    Json.obj
      [ ("type", Json.str "node_join"); ("node", Json.int node);
        ("edges", Json.arr (List.map Json.int edges)) ]
  | Node_leave { node } ->
    Json.obj [ ("type", Json.str "node_leave"); ("node", Json.int node) ]
  | Edge_insert { u; v } ->
    Json.obj [ ("type", Json.str "edge_insert"); ("u", Json.int u);
               ("v", Json.int v) ]
  | Edge_delete { u; v } ->
    Json.obj [ ("type", Json.str "edge_delete"); ("u", Json.int u);
               ("v", Json.int v) ]
  | Node_crash { node } ->
    Json.obj [ ("type", Json.str "node_crash"); ("node", Json.int node) ]

let spf = Printf.sprintf

let of_json v =
  let field name get =
    match Option.bind (Json.find v name) get with
    | Some x -> Ok x
    | None -> Error (spf "missing or mistyped field %S" name)
  in
  let ( let* ) = Result.bind in
  let node name =
    let* u = field name Json.get_int in
    if u < 0 then Error (spf "field %S must be >= 0" name) else Ok u
  in
  let edge () =
    let* u = node "u" in
    let* v = node "v" in
    if u = v then Error "self-loop edge" else Ok (u, v)
  in
  match Option.bind (Json.find v "type") Json.get_string with
  | None -> Error "missing or mistyped field \"type\""
  | Some "node_join" ->
    let* n = node "node" in
    let* edges = field "edges" Json.get_list in
    let* edges =
      List.fold_left
        (fun acc e ->
          let* acc = acc in
          match Json.get_int e with
          | Some u when u >= 0 && u <> n -> Ok (u :: acc)
          | Some u when u = n -> Error "self-loop edge in \"edges\""
          | _ -> Error "mistyped entry in \"edges\"")
        (Ok []) edges
    in
    Ok (Node_join { node = n; edges = List.rev edges })
  | Some "node_leave" ->
    let* n = node "node" in
    Ok (Node_leave { node = n })
  | Some "edge_insert" ->
    let* u, v = edge () in
    Ok (Edge_insert { u; v })
  | Some "edge_delete" ->
    let* u, v = edge () in
    Ok (Edge_delete { u; v })
  | Some "node_crash" ->
    let* n = node "node" in
    Ok (Node_crash { node = n })
  | Some "batch" -> Error "\"batch\" is a flush marker, not an event"
  | Some k -> Error (spf "unknown event type %S" k)

let parse_line line =
  match Json.parse line with Error e -> Error e | Ok v -> of_json v

let batch_marker = {|{"type":"batch"}|}

let is_batch_marker v =
  match Option.bind (Json.find v "type") Json.get_string with
  | Some "batch" -> true
  | _ -> false
