type drop_reason = Random | Adversary | Crashed_dst

type event =
  | Run_begin of { program : string; n : int; active : int }
  | Round_begin of { round : int }
  | Round_end of {
      round : int;
      messages : int;
      dropped : int;
      delayed : int;
      decided : int;
      crashed : int;
    }
  | Send of { round : int; src : int; dst : int }
  | Drop of { round : int; src : int; dst : int; reason : drop_reason }
  | Delay of { round : int; src : int; dst : int; delay : int }
  | Recv of { round : int; node : int; messages : int }
  | Decide of { round : int; node : int; in_mis : bool }
  | Crash of { round : int; node : int }
  | Annotate of { round : int; node : int; key : string; value : int }
  | Run_end of {
      rounds : int;
      messages : int;
      dropped : int;
      delayed : int;
      decided : int;
      in_flight : int;
    }

let kind = function
  | Run_begin _ -> "run_begin"
  | Round_begin _ -> "round_begin"
  | Round_end _ -> "round_end"
  | Send _ -> "send"
  | Drop _ -> "drop"
  | Delay _ -> "delay"
  | Recv _ -> "recv"
  | Decide _ -> "decide"
  | Crash _ -> "crash"
  | Annotate _ -> "annotate"
  | Run_end _ -> "run_end"

let reason_string = function
  | Random -> "random"
  | Adversary -> "adversary"
  | Crashed_dst -> "crashed_dst"

let to_json e =
  let tag rest = Json.obj (("type", Json.str (kind e)) :: rest) in
  match e with
  | Run_begin { program; n; active } ->
    tag
      [ ("program", Json.str program); ("n", Json.int n);
        ("active", Json.int active) ]
  | Round_begin { round } -> tag [ ("round", Json.int round) ]
  | Round_end { round; messages; dropped; delayed; decided; crashed } ->
    tag
      [ ("round", Json.int round); ("messages", Json.int messages);
        ("dropped", Json.int dropped); ("delayed", Json.int delayed);
        ("decided", Json.int decided); ("crashed", Json.int crashed) ]
  | Send { round; src; dst } ->
    tag [ ("round", Json.int round); ("src", Json.int src);
          ("dst", Json.int dst) ]
  | Drop { round; src; dst; reason } ->
    tag
      [ ("round", Json.int round); ("src", Json.int src);
        ("dst", Json.int dst); ("reason", Json.str (reason_string reason)) ]
  | Delay { round; src; dst; delay } ->
    tag
      [ ("round", Json.int round); ("src", Json.int src);
        ("dst", Json.int dst); ("delay", Json.int delay) ]
  | Recv { round; node; messages } ->
    tag
      [ ("round", Json.int round); ("node", Json.int node);
        ("messages", Json.int messages) ]
  | Decide { round; node; in_mis } ->
    tag
      [ ("round", Json.int round); ("node", Json.int node);
        ("in_mis", Json.bool in_mis) ]
  | Crash { round; node } ->
    tag [ ("round", Json.int round); ("node", Json.int node) ]
  | Annotate { round; node; key; value } ->
    tag
      [ ("round", Json.int round); ("node", Json.int node);
        ("key", Json.str key); ("value", Json.int value) ]
  | Run_end { rounds; messages; dropped; delayed; decided; in_flight } ->
    tag
      [ ("rounds", Json.int rounds); ("messages", Json.int messages);
        ("dropped", Json.int dropped); ("delayed", Json.int delayed);
        ("decided", Json.int decided); ("in_flight", Json.int in_flight) ]

(* --- sinks ------------------------------------------------------------- *)

type sink = { emit : event -> unit; flush : unit -> unit }

let null = { emit = ignore; flush = ignore }
let is_null s = s == null

let memory ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.memory: capacity must be >= 1";
  let ring = Array.make capacity (Round_begin { round = 0 }) in
  let len = ref 0 in
  let next = ref 0 in
  let emit e =
    ring.(!next) <- e;
    next := (!next + 1) mod capacity;
    if !len < capacity then incr len
  in
  let events () =
    let start = if !len < capacity then 0 else !next in
    List.init !len (fun i -> ring.((start + i) mod capacity))
  in
  ({ emit; flush = ignore }, events)

let jsonl oc =
  { emit =
      (fun e ->
        output_string oc (to_json e);
        output_char oc '\n');
    flush = (fun () -> flush oc) }

let with_jsonl_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f (jsonl oc))

let tee sinks =
  match List.filter (fun s -> not (is_null s)) sinks with
  | [] -> null
  | [ s ] -> s
  | sinks ->
    { emit = (fun e -> List.iter (fun s -> s.emit e) sinks);
      flush = (fun () -> List.iter (fun s -> s.flush ()) sinks) }

let counting registry =
  { emit =
      (fun e -> Metrics.incr (Metrics.counter registry ("trace.events." ^ kind e)));
    flush = ignore }
