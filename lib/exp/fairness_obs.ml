module View = Mis_graph.View
module Splitmix = Mis_util.Splitmix
module Fairness = Mis_obs.Fairness
module Empirical = Mis_stats.Empirical
module Prof = Mis_obs.Prof

type params = {
  n : int;
  trials : int;
  seed : int;
  algorithms : Runners.t list;
  domains : int option;
  csv : string option;
}

let default_params =
  { n = 500; trials = 1000; seed = 1;
    algorithms = [ Runners.fair_tree; Runners.luby ]; domains = None;
    csv = None }

let tree_of (params : params) =
  Mis_workload.Trees.random_prufer
    (Splitmix.of_seed (params.seed + 0xFA1C))
    ~n:params.n

(* One algorithm: [trials] verified runs of its plain runner, compiled
   once for the tree, joins counted per node. *)
let measure ~(params : params) view (runner : Runners.t) =
  Mis_stats.Montecarlo.run
    ~check:(fun mis -> Fairmis.Mis.verify ~name:runner.Runners.name view mis)
    { Mis_stats.Montecarlo.trials = params.trials; base_seed = params.seed;
      domains = params.domains }
    ~n:(View.n view) (runner.Runners.run view)

let run_params (params : params) =
  if params.n < 2 then invalid_arg "fairness-obs: n must be >= 2";
  if params.trials < 1 then invalid_arg "fairness-obs: trials must be >= 1";
  Printf.printf
    "== fairness-obs: inequality factors over verified runs (random tree \
     n=%d, %d runs per algorithm, seed=%d)\n"
    params.n params.trials params.seed;
  let view =
    Prof.gspan "fairness-obs.setup" (fun () -> View.full (tree_of params))
  in
  let measured =
    List.map
      (fun runner ->
        let acc =
          Prof.gspan ("fairness-obs.runs." ^ runner.Runners.name) (fun () ->
              measure ~params view runner)
        in
        (runner, acc, Empirical.summarize (Empirical.of_fairness acc)))
      params.algorithms
  in
  Prof.gspan "fairness-obs.report" (fun () ->
      let header =
        [ "algorithm"; "runs"; "min P"; "max P"; "mean P"; "factor" ]
      in
      let rows =
        List.map
          (fun (runner, _, s) ->
            [ runner.Runners.name;
              string_of_int s.Empirical.trials;
              Printf.sprintf "%.3f" s.Empirical.min_freq;
              Printf.sprintf "%.3f" s.Empirical.max_freq;
              Printf.sprintf "%.3f" s.Empirical.mean_freq;
              Table.float_cell s.Empirical.factor ])
          measured
      in
      Table.print ~header rows;
      print_newline ();
      List.iter
        (fun (runner, acc, _) ->
          Printf.printf "-- %s\n" runner.Runners.name;
          print_string (Fairness.heatmap acc);
          print_string (Fairness.histogram acc);
          print_newline ())
        measured;
      match params.csv with
      | Some path ->
        Csv.write ~path
          ~header:
            [ "algorithm"; "n"; "trials"; "factor"; "min_p"; "max_p"; "mean_p" ]
          (List.map
             (fun (runner, _, s) ->
               [ runner.Runners.name; string_of_int params.n;
                 string_of_int s.Empirical.trials;
                 Table.float_cell s.Empirical.factor;
                 Printf.sprintf "%.6f" s.Empirical.min_freq;
                 Printf.sprintf "%.6f" s.Empirical.max_freq;
                 Printf.sprintf "%.6f" s.Empirical.mean_freq ])
             measured);
        Printf.printf "csv written to %s\n" path
      | None -> ())

let run (cfg : Config.t) =
  run_params
    { default_params with
      trials = max default_params.trials (cfg.Config.trials / 2);
      seed = cfg.Config.seed;
      domains = cfg.Config.domains }
