module View = Mis_graph.View
module Empirical = Mis_stats.Empirical
module Rand_plan = Fairmis.Rand_plan

let topologies cfg =
  let rng = Mis_util.Splitmix.of_seed cfg.Config.seed in
  [ ("even-cycle-256", Mis_workload.Bipartite.even_cycle 256);
    ("grid-16x16", Mis_workload.Bipartite.grid ~width:16 ~height:16);
    ("hypercube-8", Mis_workload.Bipartite.hypercube ~dim:8);
    ( "random-bipartite",
      Mis_workload.Bipartite.random_connected rng ~left:128 ~right:128 ~p:0.02 );
    ( "double-star",
      Mis_workload.Bipartite.double_star ~left_leaves:40 ~right_leaves:160 ) ]

let light cfg = { cfg with Config.trials = min cfg.Config.trials 2000 }

(* Average block-join rate over a few hundred runs (Lemma 12(i)). *)
let block_rate cfg view =
  let total, count =
    Mis_stats.Montecarlo.fold
      (Config.montecarlo ~trials:(min 300 cfg.Config.trials) cfg)
      ~init:(fun () -> (ref 0, ref 0))
      ~trial:(fun (total, count) ~seed ->
        let _, tr = Fairmis.Fair_bipart.run_traced view (Rand_plan.make seed) in
        Array.iter
          (fun b ->
            incr count;
            if b then incr total)
          tr.Fairmis.Fair_bipart.in_block)
      ~merge:(fun (ta, ca) (tb, cb) ->
        ta := !ta + !tb;
        ca := !ca + !cb;
        (ta, ca))
  in
  float_of_int !total /. float_of_int !count

let run cfg =
  let cfg = light cfg in
  Printf.printf "== bipart: FairBipart on bipartite graphs (Thm. 13) [%s]\n"
    (Config.describe cfg);
  let header =
    [ "graph"; "n"; "FairBipart F"; "min P"; "block rate"; "Luby F" ]
  in
  let body =
    List.map
      (fun (name, g) ->
        let view = View.full g in
        let fb = Runners.measure cfg view Runners.fair_bipart in
        let l = Runners.measure cfg view Runners.luby in
        [ name; string_of_int (Mis_graph.Graph.n g);
          Table.float_cell (Empirical.inequality_factor fb);
          Printf.sprintf "%.3f" (Empirical.min_frequency fb);
          Printf.sprintf "%.3f" (block_rate cfg view);
          Table.float_cell (Empirical.inequality_factor l) ])
      (topologies cfg)
  in
  Table.print ~header body;
  print_endline
    "(Theorem 13: FairBipart F <= 8; block rate ~ p(1-p^gamma)^n > 1/4 with\n\
    \ the default gamma = 2 lg n, approaching 1/2 for larger gamma.)\n"
