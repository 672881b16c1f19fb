(* Tests for the trace-analysis half of the observability layer: the
   JSON parser (including emit/parse round-trip properties), the replay
   validator (golden FairTree stream, corrupted streams, faulty runs),
   the fairness accumulator, and the span profiler. *)

module View = Mis_graph.View
module Trees = Mis_workload.Trees
module Fault = Mis_sim.Fault
module Rand_plan = Fairmis.Rand_plan
module Json = Mis_obs.Json
module Trace = Mis_obs.Trace
module Replay = Mis_obs.Replay
module Fairness = Mis_obs.Fairness
module Empirical = Mis_stats.Empirical
module Prof = Mis_obs.Prof
module Metrics = Mis_obs.Metrics

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* --- Json parser -------------------------------------------------------- *)

let test_parse_scalars () =
  let p s = ok_or_fail ("parse " ^ s) (Json.parse s) in
  Alcotest.(check bool) "null" true (p "null" = Json.Null);
  Alcotest.(check bool) "true" true (p "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (p " false " = Json.Bool false);
  Alcotest.(check bool) "int" true (p "42" = Json.Int 42);
  Alcotest.(check bool) "negative" true (p "-7" = Json.Int (-7));
  Alcotest.(check bool) "float" true (p "1.5" = Json.Float 1.5);
  Alcotest.(check bool) "exponent" true (p "2e3" = Json.Float 2000.);
  Alcotest.(check bool) "string" true (p {|"abc"|} = Json.Str "abc");
  Alcotest.(check bool) "escapes" true
    (p {|"a\"b\\c\nd\t"|} = Json.Str "a\"b\\c\nd\t");
  Alcotest.(check bool) "unicode escape" true (p {|"A"|} = Json.Str "A");
  Alcotest.(check bool) "unicode 2-byte" true
    (p {|"é"|} = Json.Str "\xc3\xa9");
  Alcotest.(check bool) "control escape" true (p {|""|} = Json.Str "\001")

let test_parse_structures () =
  let p s = ok_or_fail ("parse " ^ s) (Json.parse s) in
  Alcotest.(check bool) "empty arr" true (p "[]" = Json.Arr []);
  Alcotest.(check bool) "arr" true
    (p "[1, 2,3]" = Json.Arr [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
  Alcotest.(check bool) "empty obj" true (p "{}" = Json.Obj []);
  Alcotest.(check bool) "obj order kept" true
    (p {|{"b":1,"a":[true,null]}|}
    = Json.Obj
        [ ("b", Json.Int 1);
          ("a", Json.Arr [ Json.Bool true; Json.Null ]) ])

let test_parse_errors () =
  let fails s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error for %S carries offset (%s)" s e)
        true
        (String.length e >= 7 && String.sub e 0 7 = "offset ")
  in
  List.iter fails
    [ ""; "{"; "[1,]"; {|{"a":}|}; {|{"a" 1}|}; "tru"; {|"unterminated|};
      "1 2"; "[1] x"; {|{"a":1,}|}; {|"bad \q escape"|} ]

(* A line of brackets must fail fast at the nesting limit, not recurse
   until the stack or heap gives out; the serve loop parses every wire
   line with this parser. *)
let test_parse_depth_limit () =
  let nested d = String.make d '[' ^ String.make d ']' in
  (match Json.parse (String.make 1_000_000 '[') with
  | Ok _ -> Alcotest.fail "10^6 open brackets parsed"
  | Error e ->
    Alcotest.(check string) "error names the limit"
      (Printf.sprintf "offset %d: nesting deeper than %d" Json.max_depth
         Json.max_depth)
      e);
  (match Json.parse (nested Json.max_depth) with
  | Ok v ->
    let rec depth = function Json.Arr [ x ] -> 1 + depth x | _ -> 1 in
    Alcotest.(check int) "depth at the limit" Json.max_depth (depth v)
  | Error e -> Alcotest.failf "document at the limit rejected: %s" e);
  match Json.parse (nested (Json.max_depth + 1)) with
  | Ok _ -> Alcotest.fail "document past the limit parsed"
  | Error _ -> ()

let test_parse_accessors () =
  let v = ok_or_fail "parse" (Json.parse {|{"i":3,"f":1.5,"s":"x","b":true,"l":[1]}|}) in
  Alcotest.(check (option int)) "int" (Some 3)
    (Option.bind (Json.find v "i") Json.get_int);
  Alcotest.(check (option (float 0.))) "float" (Some 1.5)
    (Option.bind (Json.find v "f") Json.get_float);
  Alcotest.(check (option (float 0.))) "int promotes" (Some 3.)
    (Option.bind (Json.find v "i") Json.get_float);
  Alcotest.(check (option string)) "string" (Some "x")
    (Option.bind (Json.find v "s") Json.get_string);
  Alcotest.(check (option bool)) "bool" (Some true)
    (Option.bind (Json.find v "b") Json.get_bool);
  Alcotest.(check bool) "list" true
    (Option.bind (Json.find v "l") Json.get_list = Some [ Json.Int 1 ]);
  Alcotest.(check (option int)) "missing" None
    (Option.bind (Json.find v "zz") Json.get_int)

(* Generator of JSON values that round-trip exactly: printable-ASCII
   strings (the emitter escapes them canonically) and exactly
   representable numbers. *)
let arb_json_value =
  let open QCheck in
  let leaf =
    Gen.oneof
      [ Gen.return Json.Null;
        Gen.map (fun b -> Json.Bool b) Gen.bool;
        Gen.map (fun i -> Json.Int i) Gen.int;
        Gen.map (fun f -> Json.Float f) (Gen.map float_of_int Gen.int);
        Gen.map (fun f -> Json.Float f) Gen.float;
        Gen.map (fun s -> Json.Str s) Gen.(string_size ~gen:printable (0 -- 12))
      ]
  in
  let gen =
    Gen.sized (fun size ->
        Gen.fix
          (fun self n ->
            if n = 0 then leaf
            else
              Gen.oneof
                [ leaf;
                  Gen.map (fun l -> Json.Arr l)
                    (Gen.list_size (Gen.return (min n 4)) (self (n / 2)));
                  Gen.map (fun l -> Json.Obj l)
                    (Gen.list_size (Gen.return (min n 4))
                       (Gen.pair
                          Gen.(string_size ~gen:printable (1 -- 6))
                          (self (n / 2)))) ])
          (min size 6))
  in
  let rec clean v =
    (* nan / inf emit as null by design; drop them from the property. *)
    match v with
    | Json.Float f when not (Float.is_finite f) -> Json.Null
    | Json.Arr l -> Json.Arr (List.map clean l)
    | Json.Obj l -> Json.Obj (List.map (fun (k, x) -> (k, clean x)) l)
    | v -> v
  in
  make ~print:(fun v -> Json.emit v) (Gen.map clean gen)

(* emit ∘ parse ∘ emit = emit: the emitted dialect is a fixed point. *)
let prop_emit_parse_emit v =
  let s = Json.emit v in
  match Json.parse s with
  | Error e -> QCheck.Test.fail_reportf "parse %S failed: %s" s e
  | Ok v' -> String.equal s (Json.emit v')

(* For int-free floats and non-huge ints the parsed tree itself matches. *)
let prop_parse_emit_identity v =
  let s = Json.emit v in
  match Json.parse s with
  | Error e -> QCheck.Test.fail_reportf "parse %S failed: %s" s e
  | Ok v' -> (
    match Json.parse (Json.emit v') with
    | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e
    | Ok v'' -> v' = v'')

let test_float_string_roundtrip () =
  List.iter
    (fun f ->
      match Json.parse (Json.float f) with
      | Ok (Json.Float g) ->
        Alcotest.(check (float 0.)) (Printf.sprintf "%h" f) f g
      | Ok (Json.Int i) ->
        Alcotest.(check (float 0.)) (Printf.sprintf "%h" f) f (float_of_int i)
      | Ok _ -> Alcotest.failf "%h parsed to a non-number" f
      | Error e -> Alcotest.failf "%h: %s" f e)
    [ 0.1; 1. /. 3.; 1e-7; 123456.789; Float.pi; -2.5; 1e300 ]

(* --- event parsing ------------------------------------------------------ *)

let roundtrip_events evs =
  List.map
    (fun e -> ok_or_fail "parse_line" (Replay.parse_line (Trace.to_json e)))
    evs

let test_event_roundtrip () =
  let evs =
    [ Trace.Run_begin { program = "p"; n = 3; active = 3 };
      Trace.Round_begin { round = 0 };
      Trace.Send { round = 0; src = 0; dst = 1 };
      Trace.Drop { round = 0; src = 1; dst = 2; reason = Trace.Random };
      Trace.Drop { round = 0; src = 1; dst = 2; reason = Trace.Adversary };
      Trace.Drop { round = 0; src = 1; dst = 2; reason = Trace.Crashed_dst };
      Trace.Delay { round = 0; src = 2; dst = 0; delay = 2 };
      Trace.Recv { round = 1; node = 1; messages = 4 };
      Trace.Decide { round = 1; node = 0; in_mis = true };
      Trace.Crash { round = 1; node = 2 };
      Trace.Annotate { round = 1; node = 1; key = "k"; value = -3 };
      Trace.Run_end
        { rounds = 1; messages = 1; dropped = 3; delayed = 1; decided = 1;
          in_flight = 0 } ]
  in
  let back = roundtrip_events evs in
  Alcotest.(check int) "count" (List.length evs) (List.length back);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same serialization" (Trace.to_json a)
        (Trace.to_json b))
    evs back;
  Alcotest.(check bool) "same events" true (evs = back)

let test_event_parse_errors () =
  let bad line =
    match Replay.parse_line line with
    | Ok _ -> Alcotest.failf "parse_line %S unexpectedly succeeded" line
    | Error e -> e
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "unknown type mentions it" true
    (contains (bad {|{"type":"warp","round":1}|}) "warp");
  Alcotest.(check bool) "span markers are not trace events" true
    (contains (bad {|{"type":"span_begin","name":"phase"}|}) "span_begin");
  Alcotest.(check bool) "missing field named" true
    (contains (bad {|{"type":"send","round":1,"src":0}|}) "dst");
  Alcotest.(check bool) "bad drop reason" true
    (contains (bad {|{"type":"drop","round":1,"src":0,"dst":1,"reason":"x"}|})
       "reason");
  Alcotest.(check bool) "not an object" true
    (String.length (bad "[1,2]") > 0)

let test_of_jsonl_positions () =
  (* of_jsonl reports malformed lines as "FILE:LINE: ..." so the message
     is directly clickable. *)
  let path = Filename.temp_file "fairmis_replay" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        ({|{"type":"run_begin","program":"p","n":1,"active":1}|} ^ "\n\n"
        ^ "definitely not json\n");
      close_out oc;
      let expect_prefix name = function
        | Ok _ -> Alcotest.failf "%s accepted garbage" name
        | Error e ->
          let prefix = Printf.sprintf "%s:3:" path in
          Alcotest.(check bool)
            (Printf.sprintf "%s error %S starts with %S" name e prefix)
            true
            (String.length e >= String.length prefix
            && String.sub e 0 (String.length prefix) = prefix)
      in
      expect_prefix "of_jsonl" (Replay.of_jsonl path);
      (match Replay.replay_file path with
      | Ok _ -> Alcotest.fail "replay_file accepted garbage"
      | Error errs ->
        Alcotest.(check int) "single parse error" 1 (List.length errs)))

let with_file contents f =
  let path = Filename.temp_file "fairmis_lines" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

(* The bounded reader returns what [input_line] returns, across block
   boundaries, until a line passes the cap: that line alone becomes
   [Too_long], and reading resumes after its newline. *)
let test_line_reader () =
  let module R = Mis_obs.Line_reader in
  let cap = R.max_line_bytes in
  let read contents =
    with_file contents (fun path ->
        In_channel.with_open_bin path (fun ic ->
            let r = R.create ic in
            let rec go acc =
              match R.next r with
              | R.Eof -> List.rev acc
              | R.Too_long -> go ("<too long>" :: acc)
              | R.Line l -> go (l :: acc)
            in
            go []))
  in
  let by_input_line contents =
    with_file contents (fun path ->
        In_channel.with_open_bin path (fun ic ->
            let rec go acc =
              match input_line ic with
              | l -> go (l :: acc)
              | exception End_of_file -> List.rev acc
            in
            go []))
  in
  let long = String.make 70_000 'a' in
  List.iter
    (fun contents ->
      Alcotest.(check (list string))
        (Printf.sprintf "as input_line (%d bytes)" (String.length contents))
        (by_input_line contents) (read contents))
    [ ""; "\n"; "a"; "a\nb"; "a\r\nb\n\n"; long ^ "\n" ^ long;
      "x\n" ^ long ^ long ^ "\ny"; String.make cap 'c' ^ "\nz\n" ];
  Alcotest.(check (list string)) "over the cap"
    [ "a"; "<too long>"; "b"; "<too long>" ]
    (read
       ("a\n" ^ String.make (cap + 1) 'c' ^ "\nb\n"
       ^ String.make (2 * cap) 'd'))

let test_of_jsonl_long_line () =
  let ok = {|{"type":"run_begin","program":"p","n":1,"active":1}|} in
  with_file (ok ^ "\n" ^ String.make (2 lsl 20) ' ' ^ "\n" ^ ok ^ "\n")
    (fun path ->
      match Replay.of_jsonl path with
      | Ok _ -> Alcotest.fail "of_jsonl accepted a 2 MiB line"
      | Error e ->
        Alcotest.(check string) "names the long line"
          (Printf.sprintf "%s:2: line longer than %d bytes" path
             Mis_obs.Line_reader.max_line_bytes)
          e)

(* --- parser fuzz battery -------------------------------------------------- *)

let gen_trace_event =
  let open QCheck.Gen in
  let small = frequency [ (6, int_range 0 40); (1, int_range 0 max_int) ] in
  oneof
      [ map3
          (fun program n active -> Trace.Run_begin { program; n; active })
          (oneofl [ "luby"; "fair_tree"; "" ]) small small;
        map (fun round -> Trace.Round_begin { round }) small;
        map3
          (fun round messages decided ->
            Trace.Round_end
              { round; messages; dropped = 0; delayed = 1; decided;
                crashed = 0 })
          small small small;
        map3 (fun round src dst -> Trace.Send { round; src; dst }) small small
          small;
        map2
          (fun round reason ->
            Trace.Drop { round; src = 0; dst = 1; reason })
          small (oneofl [ Trace.Random; Trace.Adversary; Trace.Crashed_dst ]);
        map2
          (fun round delay -> Trace.Delay { round; src = 2; dst = 0; delay })
          small small;
        map3
          (fun round node messages -> Trace.Recv { round; node; messages })
          small small small;
        map3
          (fun round node in_mis -> Trace.Decide { round; node; in_mis })
          small small bool;
        map2 (fun round node -> Trace.Crash { round; node }) small small;
        map2
          (fun key value ->
            Trace.Annotate { round = 1; node = 2; key; value })
          (oneofl [ "k"; "stage"; "a\"b" ]) small;
        map
          (fun rounds ->
            Trace.Run_end
              { rounds; messages = 3; dropped = 0; delayed = 0; decided = 2;
                in_flight = 1 })
          small ]

(* Well-formed trace lines (and, for the JSON parser's sake, nested JSON
   values), then one to three mutations: truncation, a flipped byte, a
   run of 40+ digits, invalid UTF-8, a duplicated segment or key, a stray
   quote. *)
let gen_mutated_line =
  let open QCheck.Gen in
  let insert s i x =
    String.sub s 0 i ^ x ^ String.sub s i (String.length s - i)
  in
  let pos s = int_range 0 (String.length s) in
  let truncate s = map (fun i -> String.sub s 0 i) (pos s) in
  let flip s =
    if s = "" then return s
    else
      map2
        (fun i c -> String.mapi (fun j x -> if j = i then c else x) s)
        (int_range 0 (String.length s - 1))
        char
  in
  let digits s =
    let* i = pos s and* n = int_range 40 400 and* sign = oneofl [ ""; "-" ] in
    return (insert s i (sign ^ String.make n '9'))
  in
  let bad_utf8 s =
    let* i = pos s
    and* b =
      oneofl
        [ "\xff"; "\xfe"; "\x80"; "\xc3"; "\xc0\x80"; "\xed\xa0\x80";
          "\xf4\x90\x80\x80"; "\xe2\x82" ]
    in
    return (insert s i b)
  in
  let dup_segment s =
    let* i = pos s and* j = pos s and* k = pos s in
    let i = min i j and j = max i j in
    return (insert s k (String.sub s i (j - i)))
  in
  (* The field after a random comma, repeated right after the opening
     brace: a duplicate key (with its value) at the front. *)
  let dup_key s =
    match
      List.filter (fun i -> s.[i] = ',') (List.init (String.length s) Fun.id)
    with
    | [] -> return s
    | commas ->
      let* c = oneofl commas in
      let stop =
        match String.index_from_opt s (c + 1) ',' with
        | Some d -> d
        | None -> String.length s - 1
      in
      return (insert s 1 (String.sub s (c + 1) (max 0 (stop - c - 1)) ^ ","))
  in
  let stray_quote s = map (fun i -> insert s i "\"") (pos s) in
  let mutation s =
    oneof
      [ truncate s; flip s; digits s; bad_utf8 s; dup_segment s; dup_key s;
        stray_quote s ]
  in
  let rec mutate k s = if k = 0 then return s else mutation s >>= mutate (k - 1) in
  let* k = int_range 1 3
  and* line =
    frequency
      [ (3, map Trace.to_json gen_trace_event);
        (1, map Json.emit (QCheck.gen arb_json_value)) ]
  in
  mutate k line

let arb_mutated_line = QCheck.make ~print:(Printf.sprintf "%S") gen_mutated_line

(* Either parser answers [Ok] or [Error] on any mutated line; nothing
   escapes as an exception. *)
let prop_parsers_total line =
  let total name f =
    match f line with
    | Ok _ | Error _ -> true
    | exception e ->
      QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string e)
  in
  total "Json.parse" Json.parse && total "Replay.parse_line" Replay.parse_line

(* A stream of well-formed lines with one mutated line among them: the
   streaming read agrees with [parse_line] line by line, so it fails at
   the first non-blank line [parse_line] rejects, and names that line. *)
let prop_of_jsonl_names_bad_line (before, bad, after) =
  let lines =
    List.map Trace.to_json before @ [ bad ] @ List.map Trace.to_json after
  in
  let contents = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  (* The lines as read back: a mutation may have added line breaks. *)
  let read =
    String.split_on_char '\n'
      (String.sub contents 0 (String.length contents - 1))
  in
  let nonblank = List.filter (fun l -> String.trim l <> "") read in
  let rec first_bad i = function
    | [] -> None
    | l :: rest ->
      if String.trim l <> "" && Result.is_error (Replay.parse_line l) then Some i
      else first_bad (i + 1) rest
  in
  with_file contents (fun path ->
      match (Replay.of_jsonl path, first_bad 1 read) with
      | Ok evs, None -> List.length evs = List.length nonblank
      | Error e, Some k ->
        let prefix = Printf.sprintf "%s:%d: " path k in
        String.length e >= String.length prefix
        && String.sub e 0 (String.length prefix) = prefix
        || QCheck.Test.fail_reportf "error %S does not start with %S" e prefix
      | Ok _, Some k -> QCheck.Test.fail_reportf "line %d accepted" k
      | Error e, None -> QCheck.Test.fail_reportf "rejected a clean stream: %s" e)

let arb_stream_with_bad_line =
  let events = QCheck.Gen.(list_size (int_range 0 12) gen_trace_event) in
  QCheck.make
    ~print:(fun (_, bad, _) -> Printf.sprintf "%S" bad)
    QCheck.Gen.(triple events gen_mutated_line events)

(* --- replay: golden stream ---------------------------------------------- *)

let golden_run () =
  let view = View.full (Trees.path 4) in
  let sink, events = Trace.memory () in
  let o =
    Fairmis.Fair_tree_distributed.run ~gamma:1 ~tracer:sink view
      (Rand_plan.make 5)
  in
  (o, events ())

let test_replay_golden () =
  let o, evs = golden_run () in
  let s =
    match Replay.replay evs with
    | Ok s -> s
    | Error errs -> Alcotest.failf "replay failed: %s" (String.concat "; " errs)
  in
  Alcotest.(check string) "program" "fair_tree" s.Replay.program;
  Alcotest.(check int) "n" 4 s.Replay.n;
  Alcotest.(check int) "active" 4 s.Replay.active;
  Alcotest.(check int) "rounds" 11 s.Replay.rounds;
  Alcotest.(check int) "sends" 51 s.Replay.sends;
  Alcotest.(check int) "delivered" o.Mis_sim.Runtime.messages s.Replay.delivered;
  Alcotest.(check int) "dropped" 0 s.Replay.dropped;
  Alcotest.(check int) "delayed" 0 s.Replay.delayed;
  Alcotest.(check int) "decided" 4 s.Replay.decided;
  Alcotest.(check int) "crashed" 0 s.Replay.crashed;
  Alcotest.(check int) "in_flight" o.Mis_sim.Runtime.in_flight
    s.Replay.in_flight;
  Alcotest.(check int) "conservation closes"
    s.Replay.sends
    (s.Replay.received + s.Replay.dropped + s.Replay.in_flight);
  Alcotest.(check int) "annotations" 12 s.Replay.annotations;
  Alcotest.(check bool) "complete" true s.Replay.complete;
  Alcotest.(check int) "round stats len" 12 (Array.length s.Replay.round_stats);
  Helpers.bool_array |> fun t ->
  Alcotest.check t "in_mis = outcome output" o.Mis_sim.Runtime.output
    s.Replay.in_mis;
  (* Per-round delivered messages must sum to the outcome total, and agree
     with the outcome's own per-round stats. *)
  let sum =
    Array.fold_left (fun a rs -> a + rs.Replay.r_messages) 0 s.Replay.round_stats
  in
  Alcotest.(check int) "per-round sum" o.Mis_sim.Runtime.messages sum;
  Array.iteri
    (fun r rs ->
      Alcotest.(check int)
        (Printf.sprintf "round %d messages" r)
        o.Mis_sim.Runtime.round_stats.(r).Mis_sim.Runtime.rs_messages
        rs.Replay.r_messages)
    s.Replay.round_stats;
  Array.iter
    (fun dr -> Alcotest.(check bool) "everyone decided" true (dr >= 0))
    s.Replay.decide_round

(* The same stream through the serialize → parse path. *)
let test_replay_golden_via_json () =
  let o, evs = golden_run () in
  let s =
    match Replay.replay (roundtrip_events evs) with
    | Ok s -> s
    | Error errs -> Alcotest.failf "replay failed: %s" (String.concat "; " errs)
  in
  Alcotest.(check int) "delivered" o.Mis_sim.Runtime.messages s.Replay.delivered;
  Alcotest.(check int) "decided" 4 s.Replay.decided

let errors_of evs =
  match Replay.replay evs with
  | Ok _ -> Alcotest.fail "replay unexpectedly succeeded"
  | Error errs -> String.concat "\n" errs

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Dropping one send line must break conservation with a precise error:
   the enclosing round_end no longer matches the event sums. *)
let test_replay_corrupted_missing_send () =
  let _, evs = golden_run () in
  let send_round = ref (-1) in
  let dropped = ref false in
  let corrupted =
    List.filter
      (fun ev ->
        match ev with
        | Trace.Send { round; _ } when not !dropped ->
          dropped := true;
          send_round := round;
          false
        | _ -> true)
      evs
  in
  Alcotest.(check bool) "a send was removed" true !dropped;
  let msg = errors_of corrupted in
  Alcotest.(check bool)
    (Printf.sprintf "names the round (%s)" msg)
    true
    (contains msg (Printf.sprintf "round %d" !send_round));
  Alcotest.(check bool) "points at round_end accounting" true
    (contains msg "round_end")

let test_replay_corrupted_truncated () =
  let _, evs = golden_run () in
  let truncated =
    List.filter (fun ev -> match ev with Trace.Run_end _ -> false | _ -> true)
      evs
  in
  let msg = errors_of truncated in
  Alcotest.(check bool)
    (Printf.sprintf "missing run_end reported (%s)" msg)
    true (contains msg "run_end")

let test_replay_rejects_crash_silence_violation () =
  let evs =
    [ Trace.Run_begin { program = "p"; n = 2; active = 2 };
      Trace.Round_begin { round = 0 };
      Trace.Crash { round = 0; node = 0 };
      Trace.Send { round = 0; src = 0; dst = 1 };
      Trace.Round_end
        { round = 0; messages = 1; dropped = 0; delayed = 0; decided = 0;
          crashed = 1 };
      Trace.Round_begin { round = 1 };
      Trace.Recv { round = 1; node = 1; messages = 1 };
      Trace.Decide { round = 1; node = 1; in_mis = true };
      Trace.Round_end
        { round = 1; messages = 0; dropped = 0; delayed = 0; decided = 1;
          crashed = 0 };
      Trace.Run_end
        { rounds = 1; messages = 1; dropped = 0; delayed = 0; decided = 1;
          in_flight = 0 } ]
  in
  let msg = errors_of evs in
  Alcotest.(check bool)
    (Printf.sprintf "crashed sender rejected (%s)" msg)
    true (contains msg "crash")

let test_replay_rejects_double_decide () =
  let evs =
    [ Trace.Run_begin { program = "p"; n = 1; active = 1 };
      Trace.Round_begin { round = 0 };
      Trace.Decide { round = 0; node = 0; in_mis = true };
      Trace.Decide { round = 0; node = 0; in_mis = false };
      Trace.Round_end
        { round = 0; messages = 0; dropped = 0; delayed = 0; decided = 2;
          crashed = 0 };
      Trace.Run_end
        { rounds = 0; messages = 0; dropped = 0; delayed = 0; decided = 2;
          in_flight = 0 } ]
  in
  let msg = errors_of evs in
  Alcotest.(check bool)
    (Printf.sprintf "double decide rejected (%s)" msg)
    true (contains msg "decide")

(* A faulty run (drops, delays, crashes) still replays clean: the
   validator knows the fault model's event semantics. *)
let test_replay_faulty_run () =
  let view = View.full (Helpers.random_tree ~seed:11 ~n:40) in
  (* Faulty runs are long; size the ring so no event is evicted. *)
  let sink, events = Trace.memory ~capacity:2_000_000 () in
  let o =
    Fairmis.Robust.run_fair_tree ~tracer:sink
      ~faults:
        (Fault.create ~seed:3 ~drop:0.1 ~max_delay:3
           ~crashes:[ (7, 2); (30, 5) ] ())
      view (Rand_plan.make 21)
  in
  let s =
    match Replay.replay (events ()) with
    | Ok s -> s
    | Error errs -> Alcotest.failf "replay failed: %s" (String.concat "; " errs)
  in
  Alcotest.(check bool) "faults actually fired" true
    (s.Replay.dropped > 0 && s.Replay.delayed > 0 && s.Replay.crashed > 0);
  Alcotest.(check int) "delivered" o.Mis_sim.Runtime.messages s.Replay.delivered;
  Alcotest.(check int) "dropped" o.Mis_sim.Runtime.dropped s.Replay.dropped;
  Alcotest.(check int) "delayed" o.Mis_sim.Runtime.delayed s.Replay.delayed;
  Alcotest.(check int) "in_flight" o.Mis_sim.Runtime.in_flight
    s.Replay.in_flight;
  Alcotest.(check int) "conservation closes"
    s.Replay.sends
    (s.Replay.received + s.Replay.dropped + s.Replay.in_flight)

(* --- fairness accumulator ----------------------------------------------- *)

let test_fairness_record_merge () =
  let a = Fairness.create ~n:3 and b = Fairness.create ~n:3 in
  Fairness.record a ~in_mis:[| true; false; true |];
  Fairness.record a ~in_mis:[| true; false; false |];
  Fairness.record b ~in_mis:[| false; true; true |];
  Fairness.merge a b;
  Alcotest.(check int) "runs" 3 (Fairness.runs a);
  Alcotest.check Helpers.int_array "joins" [| 2; 1; 2 |] (Fairness.joins a);
  let s = Empirical.summarize (Empirical.of_fairness a) in
  Alcotest.(check int) "trials" 3 s.Empirical.trials;
  Alcotest.(check (float 1e-9)) "min" (1. /. 3.) s.Empirical.min_freq;
  Alcotest.(check (float 1e-9)) "max" (2. /. 3.) s.Empirical.max_freq;
  Alcotest.(check (float 1e-9)) "factor" 2. s.Empirical.factor;
  let masked = Empirical.of_fairness ~mask:[| true; false; true |] a in
  Alcotest.(check int) "masked nodes" 2 (Empirical.node_count masked);
  Alcotest.(check (float 1e-9)) "masked factor" 1.
    (Empirical.inequality_factor masked)

let test_fairness_never_joined () =
  let acc = Fairness.create ~n:2 in
  Fairness.record acc ~in_mis:[| true; false |];
  let s = Empirical.summarize (Empirical.of_fairness acc) in
  Alcotest.(check (float 1e-9)) "min" 0. s.Empirical.min_freq;
  Alcotest.(check (float 1e-9)) "max" 1. s.Empirical.max_freq;
  Alcotest.(check bool) "factor inf" true (s.Empirical.factor = infinity)

let test_fairness_rendering () =
  let acc = Fairness.create ~n:130 in
  let in_mis = Array.init 130 (fun i -> i mod 3 = 0) in
  Fairness.record acc ~in_mis;
  let hm = Fairness.heatmap ~width:64 acc in
  (* 130 nodes at 64 per row -> 3 data rows plus the header line. *)
  Alcotest.(check int) "heatmap rows" 4
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' hm)));
  let hist = Fairness.histogram ~bins:5 ~width:10 acc in
  Alcotest.(check bool) "histogram labelled" true (contains hist "[0.00,0.20)")

(* Past 32 rows a glyph covers a node range at its mean level: 256 nodes
   at 4 glyphs per row make 2 nodes per glyph, and nodes 4 and 5 alone
   light glyph 2. A 100,000-node heatmap stays 32 rows. *)
let test_heatmap_capped () =
  let lines hm = List.filter (fun l -> l <> "") (String.split_on_char '\n' hm) in
  let acc = Fairness.create ~n:256 in
  Fairness.record acc ~in_mis:(Array.init 256 (fun u -> u = 4 || u = 5));
  (match lines (Fairness.heatmap ~width:4 acc) with
  | header :: first :: _ as all ->
    Alcotest.(check int) "rows" 33 (List.length all);
    Alcotest.(check bool) "header names the range" true
      (contains header "2 nodes per glyph");
    Alcotest.(check string) "nodes 4-5 light glyph 2"
      "     0 \xe2\x96\x81\xe2\x96\x81\xe2\x96\x88\xe2\x96\x81" first
  | _ -> Alcotest.fail "empty heatmap");
  let big = Fairness.create ~n:100_000 in
  Fairness.record big ~in_mis:(Array.init 100_000 (fun u -> u mod 7 = 0));
  Alcotest.(check int) "100,000 nodes in 32 rows" 33
    (List.length (lines (Fairness.heatmap big)))

(* [Fairness.merge] must be order-insensitive: the engine's ordered
   reduction merges per-chunk accumulators left-to-right, but any
   association/permutation of the same underlying runs has to produce the
   same joins array (integer sums commute). *)
let prop_fairness_merge_order_insensitive =
  let mask = QCheck.(array_of_size (QCheck.Gen.return 5) bool) in
  Helpers.qtest ~count:100 "fairness merge is order-insensitive"
    QCheck.(triple (small_list mask) (small_list mask) (small_list mask))
    (fun (ma, mb, mc) ->
      let acc_of masks =
        let a = Fairness.create ~n:5 in
        List.iter (fun m -> Fairness.record a ~in_mis:m) masks;
        a
      in
      let result parts =
        match List.map acc_of parts with
        | [] -> Fairness.create ~n:5
        | first :: rest ->
          List.iter (fun b -> Fairness.merge first b) rest;
          first
      in
      (* (A·B)·C, A·(B·C) and C·B·A over fresh accumulators. *)
      let left = result [ ma; mb; mc ] in
      let right =
        let bc = result [ mb; mc ] in
        let a = acc_of ma in
        Fairness.merge a bc;
        a
      in
      let rev = result [ mc; mb; ma ] in
      let key a = (Fairness.runs a, Array.to_list (Fairness.joins a)) in
      key left = key right && key left = key rev)

let test_fairness_merge_matches_single_accumulator () =
  (* Partitioned accumulation through the parallel engine agrees with one
     serial accumulator over the same seeded runs. *)
  let view = View.full (Helpers.random_tree ~seed:4 ~n:24) in
  let serial = Fairness.create ~n:24 in
  for seed = 0 to 79 do
    Fairness.record serial
      ~in_mis:(Fairmis.Luby.run view (Fairmis.Rand_plan.make seed))
  done;
  let merged =
    Mis_stats.Montecarlo.run
      { Mis_stats.Montecarlo.trials = 80; base_seed = 0; domains = Some 4 }
      ~n:24 (fun ~seed -> Fairmis.Luby.run view (Fairmis.Rand_plan.make seed))
  in
  Alcotest.(check int) "runs" (Fairness.runs serial) (Fairness.runs merged);
  Alcotest.check Helpers.int_array "joins" (Fairness.joins serial)
    (Fairness.joins merged)

(* --- profiler ----------------------------------------------------------- *)

let test_prof_tree () =
  let p = Prof.create () in
  Prof.span p "outer" (fun () ->
      Prof.span p "inner" (fun () -> ignore (Sys.opaque_identity 1));
      Prof.span p "inner" (fun () -> ignore (Sys.opaque_identity 2)));
  Prof.span p "outer" (fun () -> ());
  match Prof.tree p with
  | [ outer ] ->
    Alcotest.(check string) "outer name" "outer" outer.Prof.s_name;
    Alcotest.(check int) "outer calls" 2 outer.Prof.s_calls;
    (match outer.Prof.s_children with
    | [ inner ] ->
      Alcotest.(check string) "inner name" "inner" inner.Prof.s_name;
      Alcotest.(check int) "inner accumulates" 2 inner.Prof.s_calls;
      Alcotest.(check bool) "child time <= parent" true
        (inner.Prof.s_seconds <= outer.Prof.s_seconds)
    | l -> Alcotest.failf "expected one child, got %d" (List.length l))
  | l -> Alcotest.failf "expected one root, got %d" (List.length l)

let test_prof_exception_safe () =
  let p = Prof.create () in
  (try Prof.span p "boom" (fun () -> failwith "x") with Failure _ -> ());
  (* A span leaked by [start] with no [stop] is discarded when an outer
     stop restores the stack. *)
  Prof.span p "after" (fun () ->
      let h = Prof.start p "leaked" in
      ignore h);
  match List.map (fun s -> s.Prof.s_name) (Prof.tree p) with
  | [ "boom"; "after" ] -> ()
  | names -> Alcotest.failf "tree: %s" (String.concat "," names)

let test_prof_merge_forest () =
  let mk name calls =
    { Prof.s_name = name; s_calls = calls; s_seconds = float_of_int calls;
      s_allocated_bytes = 0.; s_minor = 0; s_major = 0; s_children = [] }
  in
  let merged =
    Prof.merge_forest
      [ { (mk "a" 1) with Prof.s_children = [ mk "x" 2 ] };
        mk "b" 5;
        { (mk "a" 3) with Prof.s_children = [ mk "x" 4; mk "y" 1 ] } ]
  in
  match merged with
  | [ a; b ] ->
    Alcotest.(check string) "order" "a" a.Prof.s_name;
    Alcotest.(check int) "a calls" 4 a.Prof.s_calls;
    Alcotest.(check (float 1e-9)) "a seconds" 4. a.Prof.s_seconds;
    Alcotest.(check int) "b calls" 5 b.Prof.s_calls;
    (match a.Prof.s_children with
    | [ x; y ] ->
      Alcotest.(check int) "x merged" 6 x.Prof.s_calls;
      Alcotest.(check int) "y kept" 1 y.Prof.s_calls
    | l -> Alcotest.failf "a children: %d" (List.length l))
  | l -> Alcotest.failf "roots: %d" (List.length l)

let test_prof_to_metrics () =
  let p = Prof.create () in
  Prof.span p "top" (fun () -> Prof.span p "sub" (fun () -> ()));
  let reg = Metrics.create () in
  Prof.to_metrics p reg;
  Alcotest.(check int) "timer calls" 1
    (snd (Helpers.timer_value reg "prof.top"));
  Alcotest.(check int) "nested path" 1
    (snd (Helpers.timer_value reg "prof.top.sub"));
  let snap = Metrics.snapshot reg in
  Alcotest.(check bool) "gc counters present" true
    (Metrics.find_counter snap "prof.top.allocated_bytes" <> None)

let test_prof_report_format () =
  let p = Prof.create () in
  Prof.span p "alpha" (fun () -> Prof.span p "beta" (fun () -> ()));
  let r = Prof.report p in
  Alcotest.(check bool) "header" true (contains r "span");
  Alcotest.(check bool) "alpha row" true (contains r "alpha");
  Alcotest.(check bool) "beta indented" true (contains r "\n  beta")

let test_prof_multidomain_spans_merge_once () =
  (* Spans opened on worker domains land in those domains' DLS profilers;
     after the engine joins its workers, [global_tree] must show ONE
     merged node per span name with the calls of every domain summed —
     whatever the domain count. *)
  List.iter
    (fun domains ->
      let tasks = 40 in
      let name = Printf.sprintf "test.mdspan.%d" domains in
      ignore
        (Mis_stats.Parallel.map_reduce ~domains ~chunk:1 ~tasks
           ~init:(fun () -> ())
           ~merge:(fun () () -> ())
           (fun () _ ->
             Prof.span (Prof.global ()) name (fun () ->
                 ignore (Sys.opaque_identity 0))));
      let hits =
        List.filter (fun s -> s.Prof.s_name = name) (Prof.global_tree ())
      in
      match hits with
      | [ s ] ->
        Alcotest.(check int)
          (Printf.sprintf "calls summed across %d domains" domains)
          tasks s.Prof.s_calls
      | l ->
        Alcotest.failf "expected one merged %s node, got %d" name
          (List.length l))
    [ 1; 4 ]

let suite =
  [ ( "replay",
      [ Alcotest.test_case "json parse scalars" `Quick test_parse_scalars;
        Alcotest.test_case "json parse structures" `Quick
          test_parse_structures;
        Alcotest.test_case "json parse errors" `Quick test_parse_errors;
        Alcotest.test_case "json nesting depth limit" `Quick
          test_parse_depth_limit;
        Alcotest.test_case "json accessors" `Quick test_parse_accessors;
        Helpers.qtest ~count:500 "json emit/parse/emit identity"
          arb_json_value prop_emit_parse_emit;
        Helpers.qtest ~count:500 "json parse/emit fixpoint" arb_json_value
          prop_parse_emit_identity;
        Alcotest.test_case "json float round-trip" `Quick
          test_float_string_roundtrip;
        Alcotest.test_case "event round-trip" `Quick test_event_roundtrip;
        Alcotest.test_case "event parse errors" `Quick
          test_event_parse_errors;
        Alcotest.test_case "of_jsonl file:line positions" `Quick
          test_of_jsonl_positions;
        Alcotest.test_case "bounded line reader" `Quick test_line_reader;
        Alcotest.test_case "of_jsonl rejects an oversized line" `Quick
          test_of_jsonl_long_line;
        Helpers.qtest ~count:3000 ~seed:30
          "json/trace parsers total on mutated lines" arb_mutated_line
          prop_parsers_total;
        Helpers.qtest ~count:300 ~seed:31
          "of_jsonl names the mutated line" arb_stream_with_bad_line
          prop_of_jsonl_names_bad_line;
        Alcotest.test_case "replay golden fairtree" `Quick test_replay_golden;
        Alcotest.test_case "replay golden via json" `Quick
          test_replay_golden_via_json;
        Alcotest.test_case "corrupted: missing send" `Quick
          test_replay_corrupted_missing_send;
        Alcotest.test_case "corrupted: truncated" `Quick
          test_replay_corrupted_truncated;
        Alcotest.test_case "crash silence enforced" `Quick
          test_replay_rejects_crash_silence_violation;
        Alcotest.test_case "double decide rejected" `Quick
          test_replay_rejects_double_decide;
        Alcotest.test_case "faulty run replays clean" `Quick
          test_replay_faulty_run;
        Alcotest.test_case "fairness record/merge" `Quick
          test_fairness_record_merge;
        Alcotest.test_case "fairness never-joined" `Quick
          test_fairness_never_joined;
        prop_fairness_merge_order_insensitive;
        Alcotest.test_case "fairness merge vs single accumulator" `Quick
          test_fairness_merge_matches_single_accumulator;
        Alcotest.test_case "fairness rendering" `Quick
          test_fairness_rendering;
        Alcotest.test_case "heatmap capped at 32 rows" `Quick
          test_heatmap_capped;
        Alcotest.test_case "prof tree" `Quick test_prof_tree;
        Alcotest.test_case "prof exception safety" `Quick
          test_prof_exception_safe;
        Alcotest.test_case "prof merge forest" `Quick test_prof_merge_forest;
        Alcotest.test_case "prof to metrics" `Quick test_prof_to_metrics;
        Alcotest.test_case "prof multi-domain merge" `Quick
          test_prof_multidomain_spans_merge_once;
        Alcotest.test_case "prof report format" `Quick
          test_prof_report_format ] ) ]
