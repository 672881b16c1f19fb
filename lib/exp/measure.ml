module Fairness = Mis_obs.Fairness
module Empirical = Mis_stats.Empirical

type row = {
  runner : Runners.t;
  joins : Fairness.t;
  summary : Empirical.summary;
}

let measure cfg view runner =
  let joins = Runners.joins cfg view runner in
  { runner; joins;
    summary =
      Empirical.summarize (Mis_stats.Montecarlo.empirical view joins) }

let report ?csv (cfg : Config.t) ~spec view runners =
  let rows = List.map (measure cfg view) runners in
  Printf.printf
    "== measure: inequality factors over verified runs (%s, %d runs per \
     algorithm, seed=%d)\n"
    spec cfg.Config.trials cfg.Config.seed;
  let p3 = Printf.sprintf "%.3f" and p6 = Printf.sprintf "%.6f" in
  Table.print
    ~header:[ "algorithm"; "runs"; "min P"; "max P"; "mean P"; "factor" ]
    (List.map
       (fun { runner; summary = s; _ } ->
         [ runner.Runners.name; string_of_int s.Empirical.trials;
           p3 s.Empirical.min_freq; p3 s.Empirical.max_freq;
           p3 s.Empirical.mean_freq; Table.float_cell s.Empirical.factor ])
       rows);
  List.iter
    (fun { runner; joins; _ } ->
      Printf.printf "\n-- %s\n" runner.Runners.name;
      print_string (Fairness.heatmap joins);
      print_string (Fairness.histogram joins))
    rows;
  (match csv with
  | Some path ->
    Csv.write ~path
      ~header:
        [ "algorithm"; "topology"; "trials"; "factor"; "min_p"; "max_p";
          "mean_p" ]
      (List.map
         (fun { runner; summary = s; _ } ->
           [ runner.Runners.name; spec; string_of_int s.Empirical.trials;
             Table.float_cell s.Empirical.factor; p6 s.Empirical.min_freq;
             p6 s.Empirical.max_freq; p6 s.Empirical.mean_freq ])
         rows);
    Printf.printf "csv written to %s\n" path
  | None -> ());
  rows
