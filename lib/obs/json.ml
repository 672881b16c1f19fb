type t = string

let str s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let int = string_of_int
let bool b = if b then "true" else "false"
let null = "null"

let float f =
  if Float.is_nan f || Float.abs f = Float.infinity then null
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    (* Shortest of 15/16/17 significant digits that round-trips. *)
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    shortest 15

let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields)
  ^ "}"

let arr items = "[" ^ String.concat "," items ^ "]"

(* --- parsed values ------------------------------------------------------ *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

let rec emit = function
  | Null -> null
  | Bool b -> bool b
  | Int i -> int i
  | Float f -> float f
  | Str s -> str s
  | Arr items -> arr (List.map emit items)
  | Obj fields -> obj (List.map (fun (k, v) -> (k, emit v)) fields)

exception Parse_error of int * string

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
          | None -> fail "malformed \\u escape"
          | Some code ->
            pos := !pos + 4;
            add_utf8 buf code)
        | c -> fail (Printf.sprintf "unknown escape \\%c" c));
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let is_num_char c =
      match c with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    let floaty =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit
    in
    if floaty then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "malformed number %S" lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
        (* Integer literal too wide for the int type: keep the value. *)
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "malformed number %S" lit))
  in
  (* [depth] counts the arrays and objects open around the value, so a
     hostile line of brackets fails at the first one past [max_depth]
     instead of recursing until the stack or the heap gives out. *)
  let enter depth =
    if depth >= max_depth then
      fail (Printf.sprintf "nesting deeper than %d" max_depth);
    incr pos;
    depth + 1
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
      let depth = enter depth in
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let items = ref [ parse_value depth ] in
        let rec go () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            items := parse_value depth :: !items;
            go ()
          | Some ']' -> incr pos
          | _ -> fail "expected ',' or ']'"
        in
        go ();
        Arr (List.rev !items)
      end
    | Some '{' ->
      let depth = enter depth in
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value depth in
          (k, v)
        in
        let fields = ref [ field () ] in
        let rec go () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            fields := field () :: !fields;
            go ()
          | Some '}' -> incr pos
          | _ -> fail "expected ',' or '}'"
        in
        go ();
        Obj (List.rev !fields)
      end
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing input after value";
    Ok v
  with Parse_error (off, msg) -> Error (Printf.sprintf "offset %d: %s" off msg)

(* --- accessors ---------------------------------------------------------- *)

let find v key =
  match v with Obj fields -> List.assoc_opt key fields | _ -> None

let get_int = function Int i -> Some i | _ -> None

let get_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let get_string = function Str s -> Some s | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
let get_list = function Arr items -> Some items | _ -> None
