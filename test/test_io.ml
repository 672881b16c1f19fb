(* Tests for graph I/O and CSV output. *)

module Graph = Mis_graph.Graph
module Io = Mis_graph.Io
module Csv = Mis_exp.Csv

let contains_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec loop i = i + nl <= hl && (String.sub hay i nl = needle || loop (i + 1)) in
  loop 0

(* [Io.read_edge_list] over a temporary file: [write] fills it. *)
let through_file write =
  let path = Filename.temp_file "fairmis" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write path;
      Io.read_edge_list ~path)

let parse text =
  through_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text))

let prop_edge_list_roundtrip =
  Helpers.qtest "io: edge list round-trips"
    QCheck.(pair (int_range 1 50) Helpers.arb_seed)
    (fun (n, seed) ->
      let g = Helpers.random_graph ~seed ~n ~p:0.2 in
      match through_file (fun path -> Io.write_edge_list g ~path) with
      | Error _ -> false
      | Ok g2 ->
        Graph.n g = Graph.n g2
        && Graph.edges g = Graph.edges g2)

let test_edge_list_parsing () =
  (match parse "# comment\nn 3\n0 1\n\n1 2\n" with
  | Ok g ->
    Alcotest.(check int) "n" 3 (Graph.n g);
    Alcotest.(check int) "m" 2 (Graph.m g)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "missing header" true
    (match parse "0 1\n" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "bad edge" true
    (match parse "n 3\n0 x\n" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "out of range" true
    (match parse "n 2\n0 5\n" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "duplicate header" true
    (match parse "n 2\nn 3\n" with Error _ -> true | Ok _ -> false)

let test_edge_list_file_roundtrip () =
  let g = Helpers.random_tree ~seed:3 ~n:20 in
  let path = Filename.temp_file "fairmis" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_edge_list g ~path;
      match Io.read_edge_list ~path with
      | Ok g2 -> Alcotest.(check bool) "same" true (Graph.edges g = Graph.edges g2)
      | Error e -> Alcotest.fail e)

let test_read_missing_file () =
  Alcotest.(check bool) "missing file" true
    (match Io.read_edge_list ~path:"/nonexistent/xyz.edges" with
    | Error _ -> true
    | Ok _ -> false)

let test_dot_output () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let dot = Io.to_dot ~highlight:[| true; false; true |] g in
  Alcotest.(check bool) "graph keyword" true (contains_sub dot "graph g {");
  Alcotest.(check bool) "edge" true (contains_sub dot "0 -- 1;");
  Alcotest.(check bool) "highlight" true (contains_sub dot "fillcolor=black");
  (* Exactly two highlighted nodes. *)
  let count =
    List.length
      (String.split_on_char '\n' dot
      |> List.filter (fun l -> contains_sub l "style=filled"))
  in
  Alcotest.(check int) "two filled" 2 count

let test_csv_escaping () =
  let path = Filename.temp_file "fairmis" ".csv" in
  let s =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Csv.write ~path ~header:[ "a"; "b" ] [ [ "x,y"; "q\"q" ]; [ "plain"; "1" ] ];
        In_channel.with_open_bin path In_channel.input_all)
  in
  Alcotest.(check bool) "comma quoted" true (contains_sub s "\"x,y\"");
  Alcotest.(check bool) "quote doubled" true (contains_sub s "\"q\"\"q\"");
  Alcotest.(check bool) "plain untouched" true (contains_sub s "plain,1")

let test_csv_write () =
  let path = Filename.temp_file "fairmis" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write ~path ~header:[ "h1"; "h2" ] [ [ "1"; "2" ] ];
      let ic = open_in path in
      let content = In_channel.input_all ic in
      close_in ic;
      Alcotest.(check string) "content" "h1,h2\n1,2\n" content)

let suite =
  [ ( "io.edge_list",
      [ prop_edge_list_roundtrip;
        Alcotest.test_case "parsing" `Quick test_edge_list_parsing;
        Alcotest.test_case "file roundtrip" `Quick test_edge_list_file_roundtrip;
        Alcotest.test_case "missing file" `Quick test_read_missing_file ] );
    ("io.dot", [ Alcotest.test_case "dot output" `Quick test_dot_output ]);
    ( "io.csv",
      [ Alcotest.test_case "escaping" `Quick test_csv_escaping;
        Alcotest.test_case "write" `Quick test_csv_write ] ) ]
