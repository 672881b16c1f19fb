type experiment = {
  id : string;
  title : string;
  paper_ref : string;
  run : Config.t -> unit;
}

let all =
  [ { id = "table1"; title = "Inequality factors, Luby vs FairTree";
      paper_ref = "Table I"; run = Table1.run };
    { id = "fig4"; title = "CDFs of per-node join frequency";
      paper_ref = "Figure 4"; run = Fig4.run };
    { id = "star"; title = "Luby unfairness on stars";
      paper_ref = "Sec. I"; run = Star.run };
    { id = "cone"; title = "Universal lower bound on the cone graph";
      paper_ref = "Sec. VIII, Thm. 19"; run = Cone.run };
    { id = "rooted"; title = "FairRooted on rooted trees";
      paper_ref = "Sec. IV, Thm. 3"; run = Rooted.run };
    { id = "bipart"; title = "FairBipart on bipartite graphs";
      paper_ref = "Sec. VI, Thm. 13"; run = Bipart.run };
    { id = "colormis"; title = "ColorMIS on planar graphs";
      paper_ref = "Sec. VII, Thm. 17 / Cor. 18"; run = Colormis.run };
    { id = "rounds"; title = "Distributed round complexity";
      paper_ref = "Lemmas 5 / 9 / 15"; run = Rounds.run };
    { id = "gamma"; title = "FairBipart gamma ablation";
      paper_ref = "Sec. VI closing remark"; run = Gamma_ablation.run };
    { id = "detids"; title = "Deterministic algorithm with random IDs";
      paper_ref = "Sec. II remark"; run = Detids.run };
    { id = "variants"; title = "Priority vs degree-marking Luby";
      paper_ref = "Sec. IX baseline choice"; run = Variants.run };
    { id = "correlation"; title = "Join-event correlation vs distance";
      paper_ref = "Sec. II (Metivier et al.)"; run = Correlation.run };
    { id = "misdegree"; title = "Average degree of MIS members";
      paper_ref = "Sec. II (Harris et al.)"; run = Misdegree.run };
    { id = "regions"; title = "Per-region fairness on mixed-density graphs";
      paper_ref = "Sec. VII remark"; run = Regions.run };
    { id = "convergence"; title = "Factor-estimator bias vs trial count";
      paper_ref = "Sec. IX methodology"; run = Convergence.run };
    { id = "faults"; title = "Fairness under message loss";
      paper_ref = "Sec. III model, faulty networks (ours)"; run = Faults.run };
    { id = "churn"; title = "Dynamic MIS under heavy-tailed churn";
      paper_ref = "Sec. IX WAP scenario, long-running (ours)";
      run = Churn.run };
    { id = "critpath"; title = "Critical-path length vs n, Luby vs FairTree";
      paper_ref = "Lemmas 5 / 9 via causal analysis (ours)";
      run = Critpath.run } ]

let find id = List.find_opt (fun e -> e.id = id) all
let ids () = List.map (fun e -> e.id) all
