module View = Mis_graph.View
module Graph = Mis_graph.Graph

let light cfg = { cfg with Config.trials = min cfg.Config.trials 2000 }

let algorithms = [ Runners.luby; Runners.luby_degree; Runners.fair_tree ]

(* Expected (average degree of MIS members, MIS size) over the trials. *)
let mis_degree_stats cfg view (runner : Runners.t) =
  let g = View.graph view in
  let run = runner.Runners.run view in
  let deg_sum, size_sum =
    Mis_stats.Montecarlo.fold (Config.montecarlo cfg)
      ~init:(fun () -> (ref 0., ref 0))
      ~trial:(fun (deg_sum, size_sum) ~seed ->
        let mis = run ~seed in
        let total = ref 0 and members = ref 0 in
        Array.iteri
          (fun u b ->
            if b then begin
              incr members;
              total := !total + Graph.degree g u
            end)
          mis;
        if !members > 0 then
          deg_sum := !deg_sum +. (float_of_int !total /. float_of_int !members);
        size_sum := !size_sum + !members)
      ~merge:(fun (da, sa) (db, sb) ->
        da := !da +. !db;
        sa := !sa + !sb;
        (da, sa))
  in
  let t = float_of_int cfg.Config.trials in
  (!deg_sum /. t, float_of_int !size_sum /. t)

let run cfg =
  let cfg = light cfg in
  Printf.printf
    "== misdegree: expected average degree of MIS members (Sec. II) [%s]\n"
    (Config.describe cfg);
  let topologies =
    [ ("5-ary-tree-d4", Mis_workload.Trees.complete_kary ~branch:5 ~depth:4);
      ("alternating-B10", Mis_workload.Trees.alternating ~branch:10 ~depth:4);
      ( "prefattach-500",
        Mis_workload.Trees.preferential_attachment
          (Mis_util.Splitmix.of_seed cfg.Config.seed) ~n:500 );
      ("dartmouth-like", Mis_workload.Real_world.dartmouth_like ~seed:cfg.Config.seed) ]
  in
  let header =
    [ "graph"; "avg degree" ]
    @ List.concat_map
        (fun r -> [ r.Runners.name ^ " deg"; r.Runners.name ^ " size" ])
        algorithms
  in
  let body =
    List.map
      (fun (name, g) ->
        let view = View.full g in
        let node_avg =
          2. *. float_of_int (Graph.m g) /. float_of_int (Graph.n g)
        in
        [ name; Printf.sprintf "%.2f" node_avg ]
        @ List.concat_map
            (fun runner ->
              let deg, size = mis_degree_stats cfg view runner in
              [ Printf.sprintf "%.2f" deg; Printf.sprintf "%.1f" size ])
            algorithms)
      topologies
  in
  Table.print ~header body;
  print_newline ()
