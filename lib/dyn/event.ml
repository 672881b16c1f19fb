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

let batch_marker = {|{"type":"batch"}|}

let is_batch_marker v =
  match Option.bind (Json.find v "type") Json.get_string with
  | Some "batch" -> true
  | _ -> false

(* --- decoding straight from the line ------------------------------------ *)

type line = Event of t | Batch | Blank | Malformed of string

(* The direct scanner accepts a subset of what [Json.parse] + [of_json]
   accept with [Ok] (or as a batch marker): one flat object whose keys
   are among "type", "node", "edges", "u" and "v", each at most once and
   in any order, written without escapes; a known "type" string;
   non-negative integers of at most 18 digits; and no self-loop. Within
   that subset the two agree by construction, since [Json.parse] reads
   the same bytes the same way. Anything else raises [Slow] and goes
   down the cold path, which is the oracle itself. *)
exception Slow

let[@inline] is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* A line being scanned. *)
type cursor = { s : string; n : int; mutable pos : int }

let[@inline] peek c = String.unsafe_get c.s c.pos

let ws c =
  while c.pos < c.n && is_ws (peek c) do
    c.pos <- c.pos + 1
  done

let eat c ch =
  ws c;
  if c.pos < c.n && peek c = ch then c.pos <- c.pos + 1
  else raise_notrace Slow

(* An escape-free string: returns where its bytes start; they end two
   bytes before the cursor. *)
let str c =
  eat c '"';
  let start = c.pos in
  while c.pos < c.n && peek c <> '"' && peek c <> '\\' do
    c.pos <- c.pos + 1
  done;
  if c.pos >= c.n || peek c <> '"' then raise_notrace Slow;
  c.pos <- c.pos + 1;
  start

(* Whether the string [str] just read is [lit]. *)
let is c start lit =
  let len = c.pos - start - 1 in
  len = String.length lit
  &&
  let i = ref 0 in
  while
    !i < len && String.unsafe_get c.s (start + !i) = String.unsafe_get lit !i
  do
    incr i
  done;
  !i = len

(* The index of the string [str] just read in [names]. *)
let find c start names =
  let rec go i =
    if i = Array.length names then raise_notrace Slow
    else if is c start names.(i) then i
    else go (i + 1)
  in
  go 0

(* The object keys a scan accepts, and the "type" values: the event
   constructors in declaration order, then the flush marker. *)
let keys = [| "type"; "node"; "edges"; "u"; "v" |]

let kinds =
  [| "node_join"; "node_leave"; "edge_insert"; "edge_delete"; "node_crash";
     "batch" |]

(* A fraction, exponent or sign after the digits is caught by the
   caller, which then expects a separator. *)
let nat c =
  ws c;
  let start = c.pos and v = ref 0 in
  while c.pos < c.n && peek c >= '0' && peek c <= '9' do
    v := (!v * 10) + Char.code (peek c) - 48;
    c.pos <- c.pos + 1
  done;
  let digits = c.pos - start in
  if digits = 0 || digits > 18 then raise_notrace Slow;
  !v

let nats c =
  eat c '[';
  ws c;
  if c.pos < c.n && peek c = ']' then begin
    c.pos <- c.pos + 1;
    []
  end
  else begin
    let acc = ref [ nat c ] in
    ws c;
    while c.pos < c.n && peek c = ',' do
      c.pos <- c.pos + 1;
      acc := nat c :: !acc;
      ws c
    done;
    eat c ']';
    List.rev !acc
  end

(* [seen] has bit [i] set once [keys.(i)] has been read; [kind] indexes
   [kinds]. *)
let scan s =
  let c = { s; n = String.length s; pos = 0 } in
  let kind = ref (-1) and node = ref (-1) and u = ref (-1) and v = ref (-1) in
  let edges = ref [] and seen = ref 0 in
  eat c '{';
  let more = ref true in
  while !more do
    let key = find c (str c) keys in
    if !seen land (1 lsl key) <> 0 then raise_notrace Slow;
    seen := !seen lor (1 lsl key);
    eat c ':';
    (match key with
    | 0 -> kind := find c (str c) kinds
    | 1 -> node := nat c
    | 2 -> edges := nats c
    | 3 -> u := nat c
    | _ -> v := nat c);
    ws c;
    if c.pos < c.n && peek c = ',' then c.pos <- c.pos + 1 else more := false
  done;
  eat c '}';
  ws c;
  if c.pos <> c.n then raise_notrace Slow;
  let has key = !seen land (1 lsl key) <> 0 in
  let node_ok = has 1 and edge_ok = has 3 && has 4 && !u <> !v in
  match !kind with
  | 0 when node_ok && has 2 && not (List.exists (fun x -> x = !node) !edges) ->
    Event (Node_join { node = !node; edges = !edges })
  | 1 when node_ok -> Event (Node_leave { node = !node })
  | 2 when edge_ok -> Event (Edge_insert { u = !u; v = !v })
  | 3 when edge_ok -> Event (Edge_delete { u = !u; v = !v })
  | 4 when node_ok -> Event (Node_crash { node = !node })
  | 5 -> Batch
  | _ -> raise_notrace Slow

(* Blank as [String.trim] sees it, without building the trimmed copy. *)
let blank s =
  let rec go i =
    i = String.length s
    || (match String.unsafe_get s i with
        | ' ' | '\012' | '\n' | '\r' | '\t' -> go (i + 1)
        | _ -> false)
  in
  go 0

let decode line =
  match scan line with
  | r -> r
  | exception Slow ->
    if blank line then Blank
    else (
      match Json.parse line with
      | Error e -> Malformed e
      | Ok v when is_batch_marker v -> Batch
      | Ok v -> (
        match of_json v with Ok ev -> Event ev | Error e -> Malformed e))

let parse_line line =
  match scan line with
  | Event ev -> Ok ev
  | Batch | Blank | Malformed _ | (exception Slow) -> (
    match Json.parse line with Error e -> Error e | Ok v -> of_json v)
