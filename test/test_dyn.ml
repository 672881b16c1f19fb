(* Tests for the dynamic layer: topology events and their wire format,
   the live graph, the incremental maintainer (validity after arbitrary
   event batches, repair locality, one committed repair per batch however
   slow, the engine as the repair's oracle), the resilient serve loop,
   and the churn generator. *)

module Event = Mis_dyn.Event
module Dyn_graph = Mis_dyn.Dyn_graph
module Maintain = Mis_dyn.Maintain
module Serve = Mis_dyn.Serve
module Churn = Mis_workload.Churn
module Json = Mis_obs.Json
module Metrics = Mis_obs.Metrics
module Check = Mis_graph.Check
module View = Mis_graph.View
module Splitmix = Mis_util.Splitmix

let sample_events =
  [ Event.Node_join { node = 7; edges = [ 2; 5 ] };
    Event.Node_join { node = 0; edges = [] };
    Event.Node_leave { node = 3 };
    Event.Edge_insert { u = 1; v = 4 };
    Event.Edge_delete { u = 4; v = 1 };
    Event.Node_crash { node = 9 } ]

(* --- events ------------------------------------------------------------ *)

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      match Event.parse_line (Event.to_json ev) with
      | Ok ev' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip %s" (Event.kind ev))
          true (ev = ev')
      | Error e -> Alcotest.failf "%s: %s" (Event.kind ev) e)
    sample_events;
  Alcotest.(check (list string))
    "kinds cover the wire format"
    (List.sort compare
       [ "node_join"; "node_leave"; "edge_insert"; "edge_delete"; "node_crash" ])
    (List.sort_uniq compare (List.map Event.kind sample_events))

let expect_error name line =
  match Event.parse_line line with
  | Ok _ -> Alcotest.failf "%s: expected an error for %s" name line
  | Error _ -> ()

let test_event_rejects () =
  expect_error "batch marker is not an event" Event.batch_marker;
  expect_error "unknown type" {|{"type":"frobnicate"}|};
  expect_error "missing node" {|{"type":"node_leave"}|};
  expect_error "mistyped node" {|{"type":"node_leave","node":"x"}|};
  expect_error "negative node" {|{"type":"node_leave","node":-1}|};
  expect_error "missing edges" {|{"type":"node_join","node":3}|};
  expect_error "join self-loop" {|{"type":"node_join","node":3,"edges":[3]}|};
  expect_error "negative join edge"
    {|{"type":"node_join","node":3,"edges":[-2]}|};
  expect_error "edge self-loop" {|{"type":"edge_insert","u":2,"v":2}|};
  expect_error "negative endpoint" {|{"type":"edge_delete","u":-1,"v":2}|};
  expect_error "not an object" {|[1,2]|};
  expect_error "not json" "garbage";
  (match Json.parse Event.batch_marker with
  | Ok v -> Alcotest.(check bool) "marker detected" true (Event.is_batch_marker v)
  | Error e -> Alcotest.fail e)

(* The reference the direct scan must match: the JSON parser and
   [of_json], and the line classification built on them. *)
let oracle_parse line =
  match Json.parse line with Error e -> Error e | Ok v -> Event.of_json v

let oracle_decode line =
  if String.trim line = "" then Event.Blank
  else
    match Json.parse line with
    | Error e -> Event.Malformed e
    | Ok v when Event.is_batch_marker v -> Event.Batch
    | Ok v -> (
      match Event.of_json v with
      | Ok ev -> Event.Event ev
      | Error e -> Event.Malformed e)

(* Wire lines: an event's fields in a random order with random JSON
   whitespace, then possibly one mutation. *)
let gen_wire_line =
  let open QCheck.Gen in
  let node = frequency [ (8, int_range 0 40); (1, int_range 0 max_int) ] in
  let event =
    oneof
      [ map2 (fun n es -> Event.Node_join { node = n; edges = es }) node
          (list_size (int_range 0 5) node);
        map (fun n -> Event.Node_leave { node = n }) node;
        map (fun n -> Event.Node_crash { node = n }) node;
        map2 (fun u v -> Event.Edge_insert { u; v }) node node;
        map2 (fun u v -> Event.Edge_delete { u; v }) node node ]
  in
  let ws = oneofl [ ""; ""; " "; "  "; "\t"; "\r"; "\n"; " \r\n " ] in
  let fields ev =
    let num = string_of_int in
    let typ = ("type", Json.str (Event.kind ev)) in
    match ev with
    | Event.Node_join { node; edges } ->
      [ typ; ("node", num node);
        ("edges", "[" ^ String.concat "," (List.map num edges) ^ "]") ]
    | Event.Node_leave { node } | Event.Node_crash { node } ->
      [ typ; ("node", num node) ]
    | Event.Edge_insert { u; v } | Event.Edge_delete { u; v } ->
      [ typ; ("u", num u); ("v", num v) ]
  in
  let render fs =
    let* pads = list_repeat ((4 * List.length fs) + 2) ws in
    let pad = Array.of_list pads in
    let body =
      List.mapi
        (fun i (k, v) ->
          pad.(4 * i) ^ Json.str k ^ pad.((4 * i) + 1) ^ ":"
          ^ pad.((4 * i) + 2) ^ v ^ pad.((4 * i) + 3))
        fs
    in
    return
      (pad.(4 * List.length fs) ^ "{" ^ String.concat "," body ^ "}"
      ^ pad.((4 * List.length fs) + 1))
  in
  let shuffled ev = shuffle_l (fields ev) in
  let base = event >>= shuffled >>= render in
  (* [k] set to the raw JSON [v]: in place when the event has [k] (in
     which case [dup] keeps the old field too, as a duplicate key), else
     added. *)
  let field ?(dup = false) k v ev =
    let fs = fields ev in
    let fs =
      if not (List.mem_assoc k fs) then (k, v) :: fs
      else
        List.concat_map
          (fun (k', v') ->
            if k' <> k then [ (k', v') ]
            else if dup then [ (k, v); (k', v') ]
            else [ (k, v) ])
          fs
    in
    shuffle_l fs >>= render
  in
  let dup_field ev =
    let* k = oneofl (List.map fst (fields ev))
    and* v = oneofl [ "1"; "2"; {|"node_leave"|}; "[3]" ] in
    field ~dup:true k v ev
  in
  let mutate line =
    let n = String.length line in
    oneof
      [ (let* i = int_range 0 n in
         return (String.sub line 0 i));
        (let* i = int_range 0 (max 0 (n - 1)) and* c = char in
         return
           (if n = 0 then line
            else String.mapi (fun j x -> if j = i then c else x) line));
        return (line ^ " x");
        return (line ^ "\n" ^ line) ]
  in
  let bomb d = String.make d '[' ^ String.make d ']' in
  frequency
    [ (6, base);
      (4, base >>= mutate);
      (1, event >>= field "node" (String.make 30 '7'));
      (1, event >>= field "v" (String.make 19 '9'));
      (1, event >>= field "u" (String.make 18 '9'));
      (1, event >>= field "edges" ("[" ^ String.make 25 '3' ^ "]"));
      (1, event >>= field "u" "-3");
      (2, event >>= dup_field);
      (1, event >>= field "node" "-0");
      (1, event >>= field "edges" "[1,-2]");
      (1, event >>= field "type" {|"node_join"|});
      (1, event >>= field "type" {|"batch"|});
      (1, event >>= field "type" {|"frobnicate"|});
      (1, event >>= field "type" "\"node\xff\xfe_join\"");
      (1, event >>= field "node\xc3" "1");
      (1, event >>= field "extra" "[true,null,{}]");
      (1, event >>= field "n\\u006fde" "2");
      (1, event >>= field "node" "1.0");
      (1, event >>= field "node" "1e3");
      (1, event >>= field "node" (bomb 600));
      (1, event >>= field "edges" (bomb 40));
      (* self-loops *)
      ( 1,
        map (fun n -> Event.to_json (Event.Edge_insert { u = n; v = n })) node
      );
      ( 1,
        map
          (fun n ->
            Event.to_json (Event.Node_join { node = n; edges = [ 1; n ] }))
          node );
      (1, return (bomb 600));
      ( 1,
        oneofl
          [ ""; " "; "\t\r"; "\012"; "\012{}"; Event.batch_marker;
            {| { "type" : "batch" } |}; "{}"; "[]"; "null"; {|{"type":|} ] ) ]

let prop_decode_matches_json =
  Helpers.qtest ~count:3000 "parse_line and decode = Json.parse + of_json"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_wire_line)
    (fun line ->
      Event.parse_line line = oracle_parse line
      && Event.decode line = oracle_decode line)

(* --- dyn graph --------------------------------------------------------- *)

(* [u]'s alive neighbours, sorted, read from the slot arrays. *)
let alive_neighbours g u =
  List.sort compare
    (List.filter (Dyn_graph.alive g)
       (List.init (Dyn_graph.deg g u) (Dyn_graph.nbr g u)))

let alive_nodes g =
  List.filter (Dyn_graph.alive g) (List.init (Dyn_graph.capacity g) Fun.id)

(* Links with both endpoints alive, counted from each alive node's side. *)
let live_edge_count g =
  List.fold_left
    (fun acc u -> acc + List.length (alive_neighbours g u))
    0 (alive_nodes g)
  / 2

let test_dyn_graph_ops () =
  let g = Dyn_graph.create ~capacity:6 in
  Alcotest.(check bool) "join 0" true (Dyn_graph.join g 0);
  Alcotest.(check bool) "join 1" true (Dyn_graph.join g 1);
  Alcotest.(check bool) "join 2" true (Dyn_graph.join g 2);
  Alcotest.(check bool) "double join" false (Dyn_graph.join g 0);
  Alcotest.(check bool) "insert 0-1" true (Dyn_graph.insert_edge g 0 1);
  Alcotest.(check bool) "insert 1-2" true (Dyn_graph.insert_edge g 1 2);
  Alcotest.(check bool) "duplicate edge" false (Dyn_graph.insert_edge g 1 0);
  Alcotest.(check bool) "self-loop" false (Dyn_graph.insert_edge g 1 1);
  Alcotest.(check bool) "edge to absent" false (Dyn_graph.insert_edge g 0 5);
  Alcotest.(check int) "edge count" 2 (live_edge_count g);
  Alcotest.(check int) "alive count" 3 (Dyn_graph.alive_count g);
  Alcotest.(check bool) "mem 0-1" true (Dyn_graph.mem_edge g 0 1);
  (* Clean leave removes the node's edges and frees the slot. *)
  Alcotest.(check bool) "leave 1" true (Dyn_graph.leave g 1);
  Alcotest.(check bool) "leave absent" false (Dyn_graph.leave g 1);
  Alcotest.(check int) "edges gone with 1" 0 (live_edge_count g);
  Alcotest.(check bool) "slot 1 reusable" true (Dyn_graph.join g 1);
  Alcotest.(check bool) "rejoined without edges" false (Dyn_graph.mem_edge g 0 1);
  (* Crash keeps the slot dead forever; its edges stop counting. *)
  Alcotest.(check bool) "insert 0-2" true (Dyn_graph.insert_edge g 0 2);
  Alcotest.(check bool) "crash 2" true (Dyn_graph.crash g 2);
  Alcotest.(check bool) "crash twice" false (Dyn_graph.crash g 2);
  Alcotest.(check bool) "leave crashed" false (Dyn_graph.leave g 2);
  Alcotest.(check bool) "rejoin crashed slot" false (Dyn_graph.join g 2);
  Alcotest.(check bool) "edge to crashed" false (Dyn_graph.insert_edge g 0 2);
  Alcotest.(check int) "live edges" 0 (live_edge_count g);
  Alcotest.(check int) "alive after crash" 2 (Dyn_graph.alive_count g);
  Alcotest.(check (list int)) "alive nodes" [ 0; 1 ] (alive_nodes g);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Dyn_graph.join: node 6 out of range") (fun () ->
      ignore (Dyn_graph.join g 6))

(* A CSR snapshot of the live graph, the oracle of [Dyn_graph.classify]:
   every non-absent slot active (alive and crashed, so links at crashed
   endpoints are represented) plus the crashed mask, the arguments
   [Check.surviving_view] expects. Edges come out sorted. Quadratic in
   the capacity. *)
let to_view g =
  let cap = Dyn_graph.capacity g in
  let present u = Dyn_graph.state g u <> Dyn_graph.Absent in
  let edges = ref [] in
  for u = cap - 1 downto 0 do
    for v = cap - 1 downto u + 1 do
      if present u && present v && Dyn_graph.mem_edge g u v then
        edges := (u, v) :: !edges
    done
  done;
  let graph = Mis_graph.Graph.of_edge_array ~n:cap (Array.of_list !edges) in
  ( View.restrict ~nodes:(Array.init cap present) graph,
    Array.init cap (fun u -> Dyn_graph.state g u = Dyn_graph.Crashed) )

let test_dyn_graph_views () =
  let g = Dyn_graph.create ~capacity:5 in
  List.iter (fun u -> ignore (Dyn_graph.join g u)) [ 0; 1; 2; 3 ];
  List.iter
    (fun (u, v) -> ignore (Dyn_graph.insert_edge g u v))
    [ (0, 1); (1, 2); (2, 3) ];
  ignore (Dyn_graph.crash g 2);
  let view, crashed = to_view g in
  Alcotest.(check int) "view covers the universe" 5 (View.n view);
  Alcotest.check Helpers.bool_array "crashed mask"
    [| false; false; true; false; false |]
    crashed;
  (* Crashed slots stay active in the snapshot (their edges must be
     representable); absent slots do not. *)
  Alcotest.(check bool) "crashed active in view" true (View.node_active view 2);
  Alcotest.(check bool) "absent inactive in view" false (View.node_active view 4);
  Alcotest.(check (list int)) "crashed neighbour not alive" [ 0 ]
    (alive_neighbours g 1);
  Alcotest.(check int) "live edges = both-alive" 1 (live_edge_count g)

(* A warm join / [d] inserts / leave cycle on one slot allocates nothing:
   the slot keeps its neighbour and twin arrays across the leave, and a
   link is found by a scan, not through a table. *)
let test_rejoin_allocation_bound () =
  let d = 10 in
  let g = Dyn_graph.create ~capacity:256 in
  for v = 1 to d do
    ignore (Dyn_graph.join g v)
  done;
  let cycle () =
    ignore (Dyn_graph.join g 0);
    for v = 1 to d do
      ignore (Dyn_graph.insert_edge g 0 v)
    done;
    ignore (Dyn_graph.leave g 0)
  in
  for _ = 1 to 100 do
    cycle ()
  done;
  let cycles = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to cycles do
    cycle ()
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 0. then
    Alcotest.failf "%.0f minor words over %d cycles at degree %d (bound 0)"
      words cycles d;
  Alcotest.(check int) "node 0 left" 0 (live_edge_count g)

(* Model-based: random operations over a small universe, so duplicate
   links, self-loops, dead and crashed endpoints and rejoins of departed
   slots all come up, against a naive model (slot states and a symmetric
   link matrix). After every operation: the return value, [mem_edge]
   both ways for every pair, each slot's state, degree and alive
   neighbours, and the alive count. The twin layout is checked through
   what it steers: a wrong twin makes a later swap-removal drop the
   wrong link. *)
type op =
  | Join of int
  | Leave of int
  | Crash of int
  | Insert of int * int
  | Delete of int * int
  | Mem of int * int

let show_op = function
  | Join u -> Printf.sprintf "join %d" u
  | Leave u -> Printf.sprintf "leave %d" u
  | Crash u -> Printf.sprintf "crash %d" u
  | Insert (u, v) -> Printf.sprintf "insert %d-%d" u v
  | Delete (u, v) -> Printf.sprintf "delete %d-%d" u v
  | Mem (u, v) -> Printf.sprintf "mem %d-%d" u v

let prop_dyn_graph_model =
  let cap = 8 in
  let node = QCheck.Gen.int_range 0 (cap - 1) in
  let pair f = QCheck.Gen.map2 f node node in
  let op =
    QCheck.Gen.frequency
      [ (3, QCheck.Gen.map (fun u -> Join u) node);
        (1, QCheck.Gen.map (fun u -> Leave u) node);
        (1, QCheck.Gen.map (fun u -> Crash u) node);
        (6, pair (fun u v -> Insert (u, v)));
        (3, pair (fun u v -> Delete (u, v)));
        (1, pair (fun u v -> Mem (u, v))) ]
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show_op ops))
      QCheck.Gen.(list_size (int_range 1 120) op)
  in
  Helpers.qtest ~count:300 "Dyn_graph = adjacency-set model" arb (fun ops ->
      let g = Dyn_graph.create ~capacity:cap in
      let st = Array.make cap Dyn_graph.Absent in
      let link = Array.make_matrix cap cap false in
      let alive u = st.(u) = Dyn_graph.Alive in
      let set u v b =
        link.(u).(v) <- b;
        link.(v).(u) <- b
      in
      let step = function
        | Join u ->
          let ok = st.(u) = Dyn_graph.Absent in
          if ok then st.(u) <- Dyn_graph.Alive;
          Dyn_graph.join g u = ok
        | Leave u ->
          let ok = alive u in
          if ok then begin
            st.(u) <- Dyn_graph.Absent;
            for v = 0 to cap - 1 do
              set u v false
            done
          end;
          Dyn_graph.leave g u = ok
        | Crash u ->
          let ok = alive u in
          if ok then st.(u) <- Dyn_graph.Crashed;
          Dyn_graph.crash g u = ok
        | Insert (u, v) ->
          let ok = u <> v && alive u && alive v && not link.(u).(v) in
          if ok then set u v true;
          Dyn_graph.insert_edge g u v = ok
        | Delete (u, v) ->
          let ok = u <> v && alive u && alive v && link.(u).(v) in
          if ok then set u v false;
          Dyn_graph.delete_edge g u v = ok
        | Mem (u, v) -> Dyn_graph.mem_edge g u v = link.(u).(v)
      in
      let agrees () =
        let slots = List.init cap Fun.id in
        let slot_agrees u =
          let model_nbrs p = List.filter (fun v -> link.(u).(v) && p v) slots in
          Dyn_graph.state g u = st.(u)
          && Dyn_graph.deg g u = List.length (model_nbrs (fun _ -> true))
          && alive_neighbours g u = model_nbrs alive
          && List.for_all
               (fun v ->
                 Dyn_graph.mem_edge g u v = link.(u).(v)
                 && Dyn_graph.mem_edge g v u = link.(u).(v))
               slots
        in
        List.for_all slot_agrees slots
        && Dyn_graph.alive_count g = List.length (List.filter alive slots)
      in
      List.for_all
        (fun o ->
          if not (step o) then
            QCheck.Test.fail_reportf "%s returned the wrong value" (show_op o);
          if not (agrees ()) then
            QCheck.Test.fail_reportf "state differs from the model after %s"
              (show_op o);
          true)
        ops)

(* --- maintainer -------------------------------------------------------- *)

let strict_config ?(seed = 1) () =
  { Maintain.default_config with
    Maintain.strict = true;
    check_every = 1;
    seed }

let joins_of_path n =
  List.init n (fun u ->
      Event.Node_join { node = u; edges = (if u = 0 then [] else [ u - 1 ]) })

let test_config_validation () =
  let bad cfg = ignore (Maintain.create ~config:cfg ~capacity:4 ()) in
  Alcotest.check_raises "negative check_every"
    (Invalid_argument "Maintain.create: check_every must be >= 0") (fun () ->
      bad { Maintain.default_config with Maintain.check_every = -1 });
  Alcotest.check_raises "capacity"
    (Invalid_argument "Dyn_graph.create: capacity must be >= 1") (fun () ->
      ignore (Maintain.create ~capacity:0 ()))

let test_skip_and_count () =
  let reg = Metrics.create () in
  let config = { (strict_config ()) with Maintain.metrics = Some reg } in
  let m = Maintain.create ~config ~capacity:4 () in
  let r =
    Maintain.apply_batch m
      [ Event.Node_join { node = 0; edges = [] };
        Event.Node_join { node = 1; edges = [ 0; 3; 99 ] };
        (* 3 and 99 skipped: dead / out of range *)
        Event.Node_join { node = 0; edges = [] };
        (* occupied slot *)
        Event.Node_leave { node = 2 };
        (* not alive *)
        Event.Edge_insert { u = 0; v = 1 };
        (* duplicate of the join edge *)
        Event.Edge_delete { u = 0; v = 3 };
        Event.Node_crash { node = 42 } ]
  in
  Alcotest.(check int) "events" 7 r.Maintain.events;
  Alcotest.(check int) "applied" 2 r.Maintain.applied;
  Alcotest.(check int) "skipped" 7 r.Maintain.skipped;
  Alcotest.(check int) "metric"
    7
    (Metrics.counter_value (Metrics.counter reg "dyn.events.skipped"));
  Alcotest.(check int) "live" 2 r.Maintain.live;
  (* The surviving MIS invariant held after the batch (strict mode would
     have raised otherwise) and exactly one endpoint of 0-1 is in. *)
  Alcotest.(check bool) "one of the pair is in" true
    ((Maintain.mis m).(0) <> (Maintain.mis m).(1))

let test_locality () =
  let n = 60 in
  let m = Maintain.create ~config:(strict_config ()) ~capacity:n () in
  ignore (Maintain.apply_batch m (joins_of_path n));
  let before = Maintain.mis m in
  (* Break independence on purpose: link two members a couple of hops
     apart and check the repair stays in their neighborhood. *)
  let u = ref (-1) in
  (try
     for i = 0 to n - 3 do
       if before.(i) && before.(i + 2) then begin
         u := i;
         raise Exit
       end
     done
   with Exit -> ());
  if !u < 0 then Alcotest.fail "no member pair at distance 2 on a path MIS";
  let u = !u in
  let r = Maintain.apply_batch m [ Event.Edge_insert { u; v = u + 2 } ] in
  Alcotest.(check bool) "no escalation" false r.Maintain.escalated;
  Alcotest.(check bool) "no full recompute" false r.Maintain.full_recompute;
  Alcotest.(check bool) "conflict resolved" true
    (not ((Maintain.mis m).(u)) || not ((Maintain.mis m).(u + 2)));
  (* Everything the program re-decided lies within 3 hops of the insert
     (the seeds and their member closure), and nothing outside the region
     flipped. *)
  let after = Maintain.mis m in
  let in_region = Array.make n false in
  Array.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "region node %d within 3 hops of %d-%d" w u (u + 2))
        true
        (w >= u - 3 && w <= u + 5);
      in_region.(w) <- true)
    r.Maintain.region_nodes;
  for w = 0 to n - 1 do
    if not in_region.(w) then
      Alcotest.(check bool)
        (Printf.sprintf "node %d outside the region did not flip" w)
        true
        (before.(w) = after.(w))
  done

let test_slow_repair_commits () =
  (* A clock that advances 10 s on every read makes each repair take
     10 s. The repair still runs to completion, its verdict is committed,
     and nothing escalates: there is no budget to blow. *)
  let reg = Metrics.create () in
  let now = ref 0. in
  let clock () =
    now := !now +. 10.;
    !now
  in
  let config =
    { Maintain.default_config with
      Maintain.metrics = Some reg; check_every = 1; clock }
  in
  let m = Maintain.create ~config ~capacity:10 () in
  List.iter
    (fun batch ->
      let r = Maintain.apply_batch m batch in
      Alcotest.(check (float 1e-9)) "repair time" 10. r.Maintain.repair_seconds;
      Alcotest.(check bool) "not escalated" false r.Maintain.escalated;
      Alcotest.(check bool) "not a full recompute" false
        r.Maintain.full_recompute;
      match Maintain.check m with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ joins_of_path 10; [ Event.Node_leave { node = 4 } ] ];
  Alcotest.(check bool) "bootstrap committed" true
    (Array.exists Fun.id (Maintain.mis m));
  Alcotest.(check int) "no violation" 0
    (Metrics.counter_value (Metrics.counter reg "dyn.invariant_violations"))

(* Arbitrary event batches over a small universe, including inapplicable
   and out-of-range events — validity (not any particular membership) is
   the maintained invariant. *)
let arb_event_batches =
  let open QCheck in
  let cap = 16 in
  let node = Gen.int_range 0 (cap + 1) in
  let event =
    Gen.frequency
      [ ( 4,
          Gen.map2
            (fun n es -> Event.Node_join { node = n; edges = es })
            node
            (Gen.list_size (Gen.int_range 0 4) node) );
        (2, Gen.map (fun n -> Event.Node_leave { node = n }) node);
        (1, Gen.map (fun n -> Event.Node_crash { node = n }) node);
        ( 3,
          Gen.map2 (fun u v -> Event.Edge_insert { u; v }) node node );
        ( 2,
          Gen.map2 (fun u v -> Event.Edge_delete { u; v }) node node ) ]
  in
  let batches =
    Gen.list_size (Gen.int_range 1 8)
      (Gen.list_size (Gen.int_range 0 12) event)
  in
  make
    ~print:(fun bs ->
      String.concat "\n"
        (List.map
           (fun b -> String.concat " " (List.map Event.to_json b))
           bs))
    batches

(* Self-loops are rejected at parse time, not at apply time; drop them
   from generated raw events. *)
let without_self_loops =
  List.filter_map (function
    | Event.Edge_insert { u; v } when u = v -> None
    | Event.Edge_delete { u; v } when u = v -> None
    | Event.Node_join { node; edges } ->
      Some
        (Event.Node_join { node; edges = List.filter (fun v -> v <> node) edges })
    | ev -> Some ev)

let prop_maintainer_valid_after_any_batch =
  Helpers.qtest ~count:150 "maintained MIS valid after any event batch"
    QCheck.(pair Helpers.arb_seed arb_event_batches)
    (fun (seed, batches) ->
      let batches = List.map without_self_loops batches in
      let m = Maintain.create ~config:(strict_config ~seed ()) ~capacity:16 () in
      (* strict + check_every=1: apply_batch raises on any violation. *)
      List.iter (fun b -> ignore (Maintain.apply_batch m b)) batches;
      match Maintain.check m with Ok () -> true | Error _ -> false)

let prop_repair_matches_membership_semantics =
  Helpers.qtest ~count:60 "dead slots never members; members always alive"
    QCheck.(pair Helpers.arb_seed arb_event_batches)
    (fun (seed, batches) ->
      let m = Maintain.create ~config:(strict_config ~seed ()) ~capacity:16 () in
      List.iter
        (fun b ->
          ignore
            (Maintain.apply_batch m
               (List.filter
                  (function
                    | Event.Edge_insert { u; v } | Event.Edge_delete { u; v }
                      -> u <> v
                    | _ -> true)
                  b)))
        batches;
      let g = Maintain.graph m in
      let mis = Maintain.mis m in
      Array.for_all Fun.id
        (Array.mapi
           (fun u in_set -> (not in_set) || Dyn_graph.alive g u)
           mis))

(* The in-place check against the snapshot oracle, after every batch of a
   random history (joins reusing freed slots, crashes keeping their
   links, edge flaps): on the maintained set, on every one-bit flip of it
   (a flip on a dead slot is a stale bit the check must ignore), and on
   a random set. The maintainer runs unchecked, so the function under
   test never steers the history. *)
let prop_classify_matches_snapshot =
  Helpers.qtest ~count:150
    "Dyn_graph.classify = Check.classify on the surviving snapshot"
    QCheck.(pair Helpers.arb_seed arb_event_batches)
    (fun (seed, batches) ->
      let cap = 16 in
      let m =
        Maintain.create ~config:{ Maintain.default_config with Maintain.seed }
          ~capacity:cap ()
      in
      let rng = Splitmix.of_seed seed in
      List.for_all
        (fun b ->
          ignore (Maintain.apply_batch m (without_self_loops b));
          let g = Maintain.graph m in
          let view, crashed = to_view g in
          let surviving = Check.surviving_view view ~crashed in
          let agrees set = Dyn_graph.classify g set = Check.classify surviving set in
          let mis = Maintain.mis m in
          let flipped u =
            let s = Array.copy mis in
            s.(u) <- not s.(u);
            s
          in
          agrees mis
          && List.for_all (fun u -> agrees (flipped u)) (List.init cap Fun.id)
          && agrees (Array.init cap (fun _ -> Splitmix.bool rng)))
        batches)

(* A fault behind the maintainer's back: three isolated nodes are all
   members, and a link inserted straight into the live graph makes two
   of them adjacent without seeding a repair. The next batch's check
   must catch it. *)
let linked_members config =
  let m = Maintain.create ~config ~capacity:8 () in
  ignore
    (Maintain.apply_batch m
       (List.init 3 (fun u -> Event.Node_join { node = u; edges = [] })));
  Alcotest.(check bool) "isolated nodes are members" true
    (Array.sub (Maintain.mis m) 0 3 = [| true; true; true |]);
  Alcotest.(check bool) "link inserted" true
    (Dyn_graph.insert_edge (Maintain.graph m) 0 1);
  m

let test_strict_violation_raises () =
  let m = linked_members (strict_config ()) in
  Alcotest.check_raises "strict checker names the batch"
    (Maintain.Invariant_violation
       "batch 2: maintained set is not an MIS of the surviving view (3 live \
        nodes)")
    (fun () -> ignore (Maintain.apply_batch m []))

(* The heal's repair is the batch's too: the batch's own repair has no
   seed and re-decides nothing, the heal re-decides the three live nodes,
   and the report and [dyn.flips] must say so. The decision log has one
   line per re-decided node, so the batch's lines number its [dirty]
   nodes, and its [flips] are the lines that change a membership. *)
let test_violation_heals () =
  let reg = Metrics.create () in
  let sink, decisions = Mis_obs.Trace.memory () in
  let m =
    linked_members
      { Maintain.default_config with
        Maintain.check_every = 1;
        metrics = Some reg;
        decisions = sink }
  in
  let before = Maintain.mis m and logged = List.length (decisions ()) in
  let flips0 = Metrics.counter_value (Metrics.counter reg "dyn.flips") in
  let r = Maintain.apply_batch m [] in
  Alcotest.(check bool) "healed by a full recompute" true
    r.Maintain.full_recompute;
  Alcotest.(check bool) "reported as escalated" true r.Maintain.escalated;
  Alcotest.(check int) "violation counted" 1
    (Metrics.counter_value (Metrics.counter reg "dyn.invariant_violations"));
  Alcotest.(check bool) "one of the linked pair left" true
    ((Maintain.mis m).(0) <> (Maintain.mis m).(1));
  let lines = List.filteri (fun i _ -> i >= logged) (decisions ()) in
  let changed =
    List.filter
      (function
        | Mis_obs.Trace.Decide { node; in_mis; _ } -> in_mis <> before.(node)
        | _ -> false)
      lines
  in
  Alcotest.(check int) "dirty = the batch's decision lines" 3 r.Maintain.dirty;
  Alcotest.(check int) "decision lines" r.Maintain.dirty (List.length lines);
  Alcotest.(check int) "flips = the lines that change a membership"
    (List.length changed) r.Maintain.flips;
  Alcotest.(check int) "one flip" 1 r.Maintain.flips;
  Alcotest.(check int) "dyn.flips counts the heal" 1
    (Metrics.counter_value (Metrics.counter reg "dyn.flips") - flips0);
  Alcotest.(check (list int)) "region = every live node" [ 0; 1; 2 ]
    (Array.to_list r.Maintain.region_nodes);
  Alcotest.(check bool) "the heal ran rounds" true (r.Maintain.rounds > 0);
  match Maintain.check m with Ok () -> () | Error e -> Alcotest.fail e

(* The region a batch re-decided, rebuilt from its sorted node list and
   the live graph after the batch: region indices and the links between
   alive region nodes. *)
let region_view g region =
  let k = Array.length region in
  let index = Hashtbl.create k in
  Array.iteri (fun i u -> Hashtbl.replace index u i) region;
  let edges = ref [] in
  Array.iteri
    (fun i u ->
      List.iter
        (fun v ->
          match Hashtbl.find_opt index v with
          | Some j when i < j -> edges := (i, j) :: !edges
          | _ -> ())
        (alive_neighbours g u))
    region;
  View.full (Mis_graph.Graph.of_edge_array ~n:k (Array.of_list !edges))

(* The kernel repair against its oracle, Luby's message program on the
   engine, batch by batch over a served churn stream: on each batch's
   region, with the global numbers as ids and the repair's [luby_main]
   coins (keyed as the maintainer keys them), the engine must decide
   every region node as the maintained MIS has it, take the reported
   rounds, and leave the reported number of flips. The kernel runs each
   repair to completion, and a k-node region needs at most 3k rounds
   (each phase decides at least its (value, id) minimum), so that is
   the engine's budget. Served once incrementally and once with
   [incremental = false], where every batch is a full recompute whose
   region is every alive node. Returns the region sizes, batch by
   batch. *)
let serve_against_engine params seed stream incremental =
  let m =
    Maintain.create
      ~config:{ (strict_config ~seed ()) with Maintain.incremental }
      ~capacity:params.Churn.capacity ()
  in
  let mode = if incremental then "incremental" else "full recompute" in
  List.mapi
    (fun i batch ->
      let before = Maintain.mis m in
      let r = Maintain.apply_batch m batch in
      let name what = Printf.sprintf "%s, batch %d: %s" mode (i + 1) what in
      Alcotest.(check int) (name "nothing skipped") 0 r.Maintain.skipped;
      Alcotest.(check bool) (name "not escalated") false r.Maintain.escalated;
      Alcotest.(check bool) (name "full recompute") (not incremental)
        r.Maintain.full_recompute;
      let g = Maintain.graph m and after = Maintain.mis m in
      let region = r.Maintain.region_nodes in
      if not incremental then
        Alcotest.(check (list int)) (name "region is every alive node")
          (alive_nodes g) (Array.to_list region);
      let repair_seed =
        Int64.to_int
          (Splitmix.derive (Int64.of_int seed) [ 0xD71A; r.Maintain.batch; 1 ])
        land max_int
      in
      let plan = Fairmis.Rand_plan.make repair_seed in
      let stage = Fairmis.Rand_plan.Stage.luby_main in
      let o =
        Mis_sim.Runtime.run ~max_rounds:(3 * Array.length region) ~ids:region
          ~rng_of:(fun i ->
            Fairmis.Rand_plan.node_stream plan ~stage ~node:region.(i))
          (region_view g region)
          (Fairmis.Luby.program plan ~stage)
      in
      Alcotest.(check bool) (name "engine decided the region") true
        (Array.for_all Fun.id o.Mis_sim.Runtime.decided);
      Alcotest.(check Helpers.bool_array) (name "region membership")
        o.Mis_sim.Runtime.output
        (Array.map (fun u -> after.(u)) region);
      Alcotest.(check int) (name "rounds")
        (if Array.length region = 0 then 0 else o.Mis_sim.Runtime.rounds)
        r.Maintain.rounds;
      (* A node that joined in the batch starts out of the set; every
         other alive node keeps its membership until the repair. *)
      let joined = Array.make params.Churn.capacity false in
      List.iter
        (function
          | Event.Node_join { node; _ } -> joined.(node) <- true
          | _ -> ())
        batch;
      let flips = ref 0 in
      Array.iteri
        (fun u in_set ->
          let was = before.(u) && not joined.(u) in
          if Dyn_graph.alive g u && in_set <> was then incr flips)
        after;
      Alcotest.(check int) (name "flips") !flips r.Maintain.flips;
      Array.length region)
    stream

(* Whether some region outgrew every earlier one after a smaller one:
   the maintainer's one kernel was reloaded with a region smaller than
   one it had run, and later with one larger than any it had run. *)
let regrows sizes =
  let rec go top shrunk = function
    | [] -> false
    | k :: rest -> (shrunk && k > top) || go (max top k) (shrunk || k < top) rest
  in
  match sizes with [] -> false | k :: rest -> go k false rest

let test_repair_kernel_equals_engine () =
  let params =
    { Churn.default with Churn.capacity = 256; initial = 160; batches = 60 }
  in
  let seed = 3 in
  let stream = Churn.generate (Splitmix.of_seed 21) params in
  List.iter
    (fun incremental ->
      ignore (serve_against_engine params seed stream incremental))
    [ true; false ];
  (* A small bootstrap and brisk arrivals: the resident kernel serves
     regions that shrink and then grow past every earlier one, in both
     modes. *)
  let params =
    { Churn.default with
      Churn.capacity = 256; initial = 12; batches = 40; arrival_mean = 10. }
  in
  let stream = Churn.generate (Splitmix.of_seed 5) params in
  List.iter
    (fun incremental ->
      if not (regrows (serve_against_engine params seed stream incremental))
      then
        Alcotest.failf "incremental = %b: no region shrank and regrew"
          incremental)
    [ true; false ]

(* Words this domain allocated straight into the major heap. [Gc.counters]
   reads this domain's own counts ([Gc.quick_stat] also folds in other
   domains' counts as they last reported them), and the minor collection
   first makes every promotion so far count on both sides. *)
let direct_major_words () =
  Gc.minor ();
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* A warm batch allocates in proportion to its region: the dirty set,
   slot map, seeds, the region's CSR, the kernel with its scratch and
   the outcome live in the maintainer, so nothing capacity-sized, no
   edge list, no graph and no kernel is built per repair, and no block
   is big enough to go straight to the major heap. What is left is the
   region's node lists (a word per dirty node) and a constant for the
   batch's own events, the repair's coins and the report: 183 to 447
   words a batch here, at most 4 * size + 344 (a fresh kernel per
   repair took 315 to 724). The bound adds 25% to that constant. Regions
   here stay small (no array passes the 256-word minor-heap limit),
   which is what makes the second bound meaningful. *)
let test_repair_allocation_bound () =
  let params =
    { Churn.default with Churn.capacity = 2048; initial = 200; batches = 80;
      arrival_mean = 4.; flap_mean = 4.; radius = 60. }
  in
  let stream = Churn.generate (Splitmix.of_seed 8) params in
  let m = Maintain.create ~capacity:params.Churn.capacity () in
  let warm = List.filteri (fun i _ -> i < 40) stream in
  List.iter (fun b -> ignore (Maintain.apply_batch m b)) warm;
  let sized = ref 0 in
  List.iteri
    (fun i b ->
      if i >= 40 then begin
        let d0 = direct_major_words () in
        let w0 = Gc.minor_words () in
        let r = Maintain.apply_batch m b in
        let w = Gc.minor_words () -. w0 in
        let d = direct_major_words () -. d0 in
        let region = r.Maintain.region_nodes in
        let size =
          Array.length region
          + Mis_graph.Graph.m
              (Mis_graph.View.graph (region_view (Maintain.graph m) region))
        in
        if size > 0 then incr sized;
        let bound = (4. *. float_of_int size) +. 430. in
        if w > bound then
          Alcotest.failf "batch %d: %.0f minor words > 4 * %d + 430" (i + 1)
            w size;
        if d <> 0. then
          Alcotest.failf
            "batch %d: %.0f words allocated straight to the major heap"
            (i + 1) d
      end)
    stream;
  if !sized < 20 then Alcotest.failf "only %d batches repaired a region" !sized

(* The per-batch check at serve scale: 2,048 slots, a few hundred alive.
   Warm, it allocates nothing; the bound leaves slack for the probe. *)
let test_check_allocates_nothing () =
  let params =
    { Churn.default with Churn.capacity = 2048; initial = 400; batches = 10 }
  in
  let m = Maintain.create ~capacity:params.Churn.capacity () in
  List.iter
    (fun b -> ignore (Maintain.apply_batch m b))
    (Churn.generate (Splitmix.of_seed 5) params);
  let g = Maintain.graph m in
  if live_edge_count g = 0 then Alcotest.fail "no live edges to scan";
  let words f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let mis = Maintain.mis m in
  List.iter
    (fun (name, f) ->
      let w = words f in
      if w > 64. then Alcotest.failf "%s: %.0f minor words > 64" name w)
    [ ("Maintain.check", fun () -> Maintain.check m = Ok ());
      ("Dyn_graph.classify", fun () -> Dyn_graph.classify g mis = Check.Mis) ];
  Alcotest.(check bool) "maintained set passes" true (Maintain.check m = Ok ())

(* --- serve ------------------------------------------------------------- *)

let with_stream lines f =
  let path = Filename.temp_file "fairmis_serve" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f path ic))

let test_serve_markers_and_malformed () =
  let reg = Metrics.create () in
  let config = { (strict_config ()) with Maintain.metrics = Some reg } in
  let m = Maintain.create ~config ~capacity:8 () in
  let logs = ref [] in
  let stats =
    with_stream
      [ {|{"type":"node_join","node":0,"edges":[]}|};
        {|{"type":"node_join","node":1,"edges":[0]}|};
        "this is not json";
        Event.batch_marker;
        "";
        {|{"type":"node_join","node":9000}|};
        {|{"type":"edge_delete","u":0,"v":1}|};
        Event.batch_marker;
        Event.batch_marker (* a quiet period still counts as a batch *) ]
      (fun path ic ->
        Serve.run ~file:path ~log:(fun s -> logs := s :: !logs) m ic)
  in
  Alcotest.(check int) "batches" 3 stats.Serve.batches;
  Alcotest.(check int) "lines" 9 stats.Serve.lines;
  Alcotest.(check int) "events" 3 stats.Serve.events;
  Alcotest.(check int) "applied" 3 stats.Serve.applied;
  Alcotest.(check int) "malformed" 2 stats.Serve.malformed;
  Alcotest.(check int) "malformed metric" 2
    (Metrics.counter_value (Metrics.counter reg "dyn.events.malformed"));
  Alcotest.(check int) "two skipped lines logged" 2 (List.length !logs);
  (* Each skipped line is reported as "FILE:LINE: skipping ...". *)
  let positions =
    List.sort compare
      (List.map
         (fun line ->
           try Scanf.sscanf line "%s@:%d: skipping malformed event" (fun f l -> (f, l))
           with Scanf.Scan_failure _ | End_of_file ->
             Alcotest.failf "log line without a position: %s" line)
         !logs)
  in
  (match positions with
  | [ (f1, 3); (f2, 6) ] ->
    Alcotest.(check bool) "positions name the stream file" true
      (Filename.check_suffix f1 ".jsonl" && f1 = f2)
  | _ -> Alcotest.failf "unexpected positions (%d)" (List.length positions));
  (* After deleting 0-1 both nodes are isolated survivors: both must be
     members of the maintained MIS. *)
  Alcotest.(check bool) "isolated nodes re-covered" true
    ((Maintain.mis m).(0) && (Maintain.mis m).(1))

let test_serve_batch_size_and_eof () =
  let m = Maintain.create ~config:(strict_config ()) ~capacity:8 () in
  let events =
    List.init 5 (fun u ->
        Event.to_json (Event.Node_join { node = u; edges = [] }))
  in
  let stats =
    with_stream events (fun _path ic -> Serve.run ~batch_size:2 m ic)
  in
  (* 2 + 2 + EOF flush of the odd event out. *)
  Alcotest.(check int) "batches" 3 stats.Serve.batches;
  Alcotest.(check int) "events" 5 stats.Serve.events;
  let stats2 =
    with_stream events (fun _path ic ->
        Serve.run ~batch_size:2 ~max_batches:1
          (Maintain.create ~config:(strict_config ()) ~capacity:8 ())
          ic)
  in
  Alcotest.(check int) "max_batches stops the loop" 1 stats2.Serve.batches

(* A line past the reader's cap is one malformed line at its position;
   the events on both sides of it still apply. *)
let test_serve_oversized_line () =
  let m = Maintain.create ~config:(strict_config ()) ~capacity:8 () in
  let logs = ref [] in
  let stats =
    with_stream
      [ Event.to_json (Event.Node_join { node = 0; edges = [] });
        {|{"type":"node_leave","node":|} ^ String.make (2 lsl 20) '1' ^ "}";
        Event.to_json (Event.Node_join { node = 1; edges = [ 0 ] }) ]
      (fun path ic ->
        Serve.run ~file:path ~log:(fun l -> logs := l :: !logs) m ic)
  in
  Alcotest.(check int) "malformed" 1 stats.Serve.malformed;
  Alcotest.(check int) "lines" 3 stats.Serve.lines;
  Alcotest.(check int) "both events applied" 2 stats.Serve.applied;
  match !logs with
  | [ l ] ->
    let suffix =
      Printf.sprintf ":2: skipping malformed event: line longer than %d bytes"
        Mis_obs.Line_reader.max_line_bytes
    in
    Alcotest.(check bool) (Printf.sprintf "%S names line 2" l) true
      (String.ends_with ~suffix l)
  | _ -> Alcotest.failf "expected one log line, got %d" (List.length !logs)

let test_percentile () =
  let module Sketch = Mis_obs.Sketch in
  let pct xs q = Sketch.nearest_rank xs q in
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (float 1e-9))) "p50" (Some 50.) (pct xs 0.50);
  Alcotest.(check (option (float 1e-9))) "p95" (Some 95.) (pct xs 0.95);
  Alcotest.(check (option (float 1e-9))) "p100" (Some 100.) (pct xs 1.0);
  Alcotest.(check (option (float 1e-9)))
    "single sample" (Some 7.)
    (pct [| 7. |] 0.5);
  Alcotest.(check (option (float 1e-9))) "empty is None" None (pct [||] 0.5)

(* --- churn generator --------------------------------------------------- *)

let small_churn =
  { Churn.default with
    Churn.capacity = 48;
    initial = 24;
    batches = 20;
    arrival_mean = 3.;
    flap_mean = 2.;
    radius = 120. }

let test_churn_deterministic () =
  let s1 = Churn.generate (Splitmix.of_seed 11) small_churn in
  let s2 = Churn.generate (Splitmix.of_seed 11) small_churn in
  Alcotest.(check bool) "same seed, same stream" true (s1 = s2);
  let s3 = Churn.generate (Splitmix.of_seed 12) small_churn in
  Alcotest.(check bool) "different seed, different stream" false (s1 = s3);
  Alcotest.(check int) "bootstrap plus churn batches"
    (small_churn.Churn.batches + 1)
    (List.length s1);
  (match s1 with
  | bootstrap :: _ ->
    Alcotest.(check int) "bootstrap joins the initial cloud"
      small_churn.Churn.initial
      (List.length bootstrap);
    List.iter
      (function
        | Event.Node_join _ -> ()
        | ev -> Alcotest.failf "bootstrap contains a %s" (Event.kind ev))
      bootstrap
  | [] -> Alcotest.fail "empty stream")

let test_churn_validate () =
  let bad p = ignore (Churn.generate (Splitmix.of_seed 1) p) in
  Alcotest.check_raises "initial > capacity"
    (Invalid_argument
       "Churn.validate: initial must be in [0, capacity] (got 99)") (fun () ->
      bad { small_churn with Churn.capacity = 10; initial = 99 });
  Alcotest.check_raises "pareto scale"
    (Invalid_argument "Churn.validate: lifetime_min must be >= 1 (got 0)")
    (fun () -> bad { small_churn with Churn.lifetime_min = 0. });
  Alcotest.check_raises "crash prob"
    (Invalid_argument "Churn.validate: crash_prob must be in [0, 1] (got 2)")
    (fun () -> bad { small_churn with Churn.crash_prob = 2. })

let prop_churn_streams_are_clean =
  Helpers.qtest ~count:25 "churn streams apply without skips, MIS stays valid"
    Helpers.arb_seed
    (fun seed ->
      let stream = Churn.generate (Splitmix.of_seed seed) small_churn in
      let m =
        Maintain.create ~config:(strict_config ~seed ())
          ~capacity:small_churn.Churn.capacity ()
      in
      let skipped = ref 0 in
      List.iter
        (fun b ->
          let r = Maintain.apply_batch m b in
          skipped := !skipped + r.Maintain.skipped)
        stream;
      (* strict + check_every=1 already guarantees validity; cleanliness
         is the generator's own contract. *)
      !skipped = 0)

let test_churn_jsonl_round_trip () =
  let stream = Churn.generate (Splitmix.of_seed 4) small_churn in
  let path = Filename.temp_file "fairmis_churn" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Churn.write_jsonl oc stream;
      close_out oc;
      let m =
        Maintain.create ~config:(strict_config ())
          ~capacity:small_churn.Churn.capacity ()
      in
      let ic = open_in path in
      let stats =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Serve.run ~file:path m ic)
      in
      Alcotest.(check int) "one batch per marker"
        (List.length stream)
        stats.Serve.batches;
      Alcotest.(check int) "all events parse back"
        (List.fold_left (fun a b -> a + List.length b) 0 stream)
        stats.Serve.events;
      Alcotest.(check int) "nothing malformed" 0 stats.Serve.malformed;
      Alcotest.(check int) "nothing skipped" 0 stats.Serve.skipped)

let suite =
  [ ( "dyn.event",
      [ Alcotest.test_case "wire round-trip" `Quick test_event_roundtrip;
        Alcotest.test_case "rejects malformed events" `Quick
          test_event_rejects;
        prop_decode_matches_json ] );
    ( "dyn.graph",
      [ Alcotest.test_case "mutators and slot semantics" `Quick
          test_dyn_graph_ops;
        Alcotest.test_case "snapshot views" `Quick test_dyn_graph_views;
        Alcotest.test_case "warm rejoin allocation bound" `Quick
          test_rejoin_allocation_bound;
        prop_dyn_graph_model ] );
    ( "dyn.maintain",
      [ Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "inapplicable events skip and count" `Quick
          test_skip_and_count;
        Alcotest.test_case "repair stays local" `Quick test_locality;
        Alcotest.test_case "a slow repair is committed, never discarded"
          `Quick test_slow_repair_commits;
        prop_maintainer_valid_after_any_batch;
        prop_repair_matches_membership_semantics;
        prop_classify_matches_snapshot;
        Alcotest.test_case "strict violation raises" `Quick
          test_strict_violation_raises;
        Alcotest.test_case "violation heals when not strict" `Quick
          test_violation_heals;
        Alcotest.test_case "kernel repair = engine repair" `Quick
          test_repair_kernel_equals_engine;
        Alcotest.test_case "warm repair allocation bound" `Quick
          test_repair_allocation_bound;
        Alcotest.test_case "warm check allocates nothing" `Quick
          test_check_allocates_nothing ] );
    ( "dyn.serve",
      [ Alcotest.test_case "markers, malformed lines, positions" `Quick
          test_serve_markers_and_malformed;
        Alcotest.test_case "oversized line is one malformed line" `Quick
          test_serve_oversized_line;
        Alcotest.test_case "batch size and EOF flush" `Quick
          test_serve_batch_size_and_eof;
        Alcotest.test_case "percentiles" `Quick test_percentile ] );
    ( "workload.churn",
      [ Alcotest.test_case "deterministic generation" `Quick
          test_churn_deterministic;
        Alcotest.test_case "parameter validation" `Quick test_churn_validate;
        prop_churn_streams_are_clean;
        Alcotest.test_case "jsonl round-trip through serve" `Quick
          test_churn_jsonl_round_trip ] ) ]
