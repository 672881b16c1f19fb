module View = Mis_graph.View
module Empirical = Mis_stats.Empirical

let checkpoints = [ 250; 500; 1000; 2000; 5000; 10_000 ]

(* Accumulate one pass of 10,000 trials, reporting the factor estimate
   at each checkpoint. Each checkpoint must see exactly the first k
   trials; the engine's ordered deterministic reduction makes that true
   in parallel too — the segment [done, target) runs on the engine and
   its join counts are added to the running totals. *)
let factor_trajectory cfg view (runner : Runners.t) =
  let n = View.n view in
  let joins = Mis_obs.Fairness.create ~n in
  let mask = Array.init n (View.node_active view) in
  let run = runner.Runners.run view in
  let results = ref [] in
  let finished = ref 0 in
  List.iter
    (fun target ->
      if target > !finished then begin
        Mis_obs.Fairness.merge joins
          (Mis_stats.Montecarlo.run
             { Mis_stats.Montecarlo.trials = target - !finished;
               base_seed = cfg.Config.seed + !finished;
               domains = cfg.Config.domains }
             ~n run);
        finished := target
      end;
      let e = Empirical.of_fairness ~mask joins in
      results := (target, Empirical.inequality_factor e) :: !results)
    checkpoints;
  List.rev !results

let run cfg =
  Printf.printf
    "== convergence: inequality-factor estimator bias vs trial count [%s]\n"
    (Config.describe cfg);
  let workloads =
    [ ( "binary-tree / Luby's", Some 3.07,
        View.full (Mis_workload.Trees.complete_kary ~branch:2 ~depth:10),
        Runners.luby );
      ( "alternating-B30 / Luby's", Some 36.59,
        View.full (Mis_workload.Trees.alternating ~branch:30 ~depth:3),
        Runners.luby );
      ( "alternating-B30 / FairTree", Some 3.09,
        View.full (Mis_workload.Trees.alternating ~branch:30 ~depth:3),
        Runners.fair_tree ) ]
  in
  let header =
    "workload" :: "paper"
    :: List.map (fun t -> Printf.sprintf "@%d" t) checkpoints
  in
  let body =
    List.map
      (fun (name, paper, view, runner) ->
        let traj = factor_trajectory cfg view runner in
        name
        :: (match paper with Some f -> Table.float_cell f | None -> "-")
        :: List.map (fun (_, f) -> Table.float_cell f) traj)
      workloads
  in
  Table.print ~header body;
  print_endline
    "(the max/min estimator over-shoots at small trial counts; by 10,000\n\
    \ runs — the paper's budget — it settles onto the true factor.)\n"
