module View = Mis_graph.View
module Empirical = Mis_stats.Empirical
module Rand_plan = Fairmis.Rand_plan

(* Sweep absolute gamma values on a long even cycle: with a tiny gamma the
   Linial–Saks blocks are tiny and most nodes end up as boundary nodes
   covered by the (unfair) Luby stage; the paper's default 2 lg n makes the
   block stage dominate; larger gamma buys little more fairness at a
   quadratic round cost. *)
let gammas = [ 1; 2; 4; 8; 16; 32 ]

let light cfg = { cfg with Config.trials = min cfg.Config.trials 2000 }

let run cfg =
  let cfg = light cfg in
  Printf.printf
    "== gamma: FairBipart fairness/time trade-off (Sec. VI remark) [%s]\n"
    (Config.describe cfg);
  let g = Mis_workload.Bipartite.even_cycle 256 in
  let view = View.full g in
  let header =
    [ "gamma"; "rounds"; "F"; "min P"; "block rate"; "luby-covered" ]
  in
  let body =
    List.map
      (fun gamma ->
        let e =
          Mis_stats.Montecarlo.estimate
            ~check:(fun mis -> Fairmis.Mis.verify ~name:"fair_bipart" view mis)
            (Config.montecarlo cfg) view
            (fun ~seed ->
              Fairmis.Fair_bipart.run ~gamma view (Rand_plan.make seed))
        in
        (* Average structural counters over a few runs (on the trial
           engine, like every other seeded probe). *)
        let probes = 200 in
        let blocks, fallback =
          Mis_stats.Montecarlo.fold (Config.montecarlo ~trials:probes cfg)
            ~init:(fun () -> (ref 0, ref 0))
            ~trial:(fun (bl, fb) ~seed ->
              let _, tr =
                Fairmis.Fair_bipart.run_traced ~gamma view (Rand_plan.make seed)
              in
              Array.iter
                (fun b -> if b then incr bl)
                tr.Fairmis.Fair_bipart.in_block;
              fb := !fb + tr.Fairmis.Fair_bipart.fallback_nodes)
            ~merge:(fun (bl1, fb1) (bl2, fb2) ->
              bl1 := !bl1 + !bl2;
              fb1 := !fb1 + !fb2;
              (bl1, fb1))
        in
        let n = float_of_int (Mis_graph.Graph.n g * probes) in
        let _, tr0 =
          Fairmis.Fair_bipart.run_traced ~gamma view (Rand_plan.make cfg.Config.seed)
        in
        [ string_of_int gamma;
          string_of_int tr0.Fairmis.Fair_bipart.rounds;
          Table.float_cell (Empirical.inequality_factor e);
          Printf.sprintf "%.3f" (Empirical.min_frequency e);
          Printf.sprintf "%.3f" (float_of_int !blocks /. n);
          Printf.sprintf "%.1f" (float_of_int !fallback /. float_of_int probes) ])
      gammas
  in
  Table.print ~header body;
  print_endline
    "(the paper's default is gamma = 2 lg n = 16 here. Small gamma leaves\n\
    \ most nodes outside any block — they fall to the Luby stage and the\n\
    \ Lemma 12(i) block-join bound p(1-p^gamma)^n collapses; large gamma\n\
    \ pushes the block rate toward 1/2 at a gamma^2 round cost.)\n"
