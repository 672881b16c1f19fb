module View = Mis_graph.View
module Rooted_tree = Mis_graph.Rooted
module Rand_plan = Fairmis.Rand_plan

let sizes = [ 64; 256; 1024 ]
let repeats = 3

let ceil_log2 = Mis_util.Ids.ceil_log2

(* [repeats] seeded simulator runs on the trial engine, rounds and
   messages accumulated in one pass (the runs are independent seeded
   trials like any other Monte Carlo workload). *)
let averages cfg run =
  let rounds, messages =
    Mis_stats.Montecarlo.fold (Config.montecarlo ~trials:repeats cfg)
      ~init:(fun () -> (ref 0, ref 0))
      ~trial:(fun (r, m) ~seed ->
        let o = run (Fairmis.Rand_plan.make seed) in
        r := !r + o.Mis_sim.Runtime.rounds;
        m := !m + o.Mis_sim.Runtime.messages)
      ~merge:(fun (r1, m1) (r2, m2) ->
        r1 := !r1 + !r2;
        m1 := !m1 + !m2;
        (r1, m1))
  in
  let per t = float_of_int !t /. float_of_int repeats in
  (per rounds, per messages)

(* All four programs run on the message-passing simulator; the reported
   numbers are the actual communication rounds until every node decided. *)
let run cfg =
  Printf.printf
    "== rounds: distributed round complexity on the simulator (Lemmas 5 / 9 / 15) [%s]\n"
    (Config.describe cfg);
  let header =
    [ "n"; "lg n"; "lg^2 n"; "Luby"; "FairRooted"; "FairTree"; "FairBipart";
      "Luby msgs"; "FairTree msgs"; "FairBipart msgs" ]
  in
  let body =
    List.map
      (fun n ->
        let g =
          Mis_workload.Trees.random_prufer
            (Mis_util.Splitmix.of_seed (cfg.Config.seed + n)) ~n
        in
        let view = View.full g in
        let t = Rooted_tree.of_tree g ~root:0 in
        let sim run = averages cfg run in
        let luby, luby_msgs = sim (fun p -> Fairmis.Luby.run_distributed view p) in
        let rooted, _ = sim (fun p -> Fairmis.Fair_rooted_distributed.run t p) in
        let tree, tree_msgs = sim (fun p -> Fairmis.Fair_tree_distributed.run view p) in
        let bipart, bipart_msgs =
          sim (fun p -> Fairmis.Fair_bipart_distributed.run view p)
        in
        let lg = ceil_log2 n in
        [ string_of_int n; string_of_int lg; string_of_int (lg * lg);
          Printf.sprintf "%.1f" luby;
          Printf.sprintf "%.1f" rooted;
          Printf.sprintf "%.1f" tree;
          Printf.sprintf "%.1f" bipart;
          Printf.sprintf "%.0f" luby_msgs;
          Printf.sprintf "%.0f" tree_msgs;
          Printf.sprintf "%.0f" bipart_msgs ])
      sizes
  in
  Table.print ~header body;
  print_endline
    "(expected shape: FairRooted is nearly flat (log* n + constant stages);\n\
    \ Luby tracks lg n times a small constant; FairTree tracks lg n times\n\
    \ the gamma constant (6 gamma + O(1), gamma = 4 lg n + 2); FairBipart\n\
    \ tracks lg^2 n (gamma^2 superround structure, gamma = 2 lg n).)\n"
