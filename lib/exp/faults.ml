module View = Mis_graph.View
module Check = Mis_graph.Check
module Fault = Mis_sim.Fault
module Splitmix = Mis_util.Splitmix
module Empirical = Mis_stats.Empirical
module Fairness = Mis_obs.Fairness

type params = {
  n : int;
  trials : int;
  rates : float list;
  repeats : int;
  seed : int;
  domains : int option;
  csv : string option;
}

let default_params =
  { n = 1000; trials = 200; rates = [ 0.; 0.01; 0.05; 0.1 ]; repeats = 3;
    seed = 1; domains = None; csv = None }

type cell = {
  algorithm : string;
  drop : float;
  trials : int;
  valid : int;
  mean_rounds : float;
  mean_dropped : float;
  factor : float;
  min_freq : float;
  max_freq : float;
}

type algorithm = {
  alg_name : string;
  alg_run :
    View.t -> Fairmis.Rand_plan.t -> faults:Fault.t -> Mis_sim.Runtime.outcome;
}

let algorithms ~repeats =
  [ { alg_name = "Luby's";
      alg_run = (fun view plan ~faults -> Fairmis.Robust.run_luby ~repeats ~faults view plan) };
    { alg_name = "FairTree";
      alg_run =
        (fun view plan ~faults -> Fairmis.Robust.run_fair_tree ~repeats ~faults view plan) } ]

(* Per-chunk accumulator, merged in chunk order. *)
type acc = {
  mutable ok : int;
  mutable rounds_sum : int;
  mutable dropped_sum : int;
  joins : Fairness.t;
}

let measure_cell ?obs ~(params : params) view algo ~drop =
  let n = View.n view in
  let a =
    Mis_stats.Montecarlo.fold ?obs
      { Mis_stats.Montecarlo.trials = params.trials; base_seed = params.seed;
        domains = params.domains }
      ~init:(fun () ->
        { ok = 0; rounds_sum = 0; dropped_sum = 0;
          joins = Fairness.create ~n })
      ~trial:(fun acc ~seed ->
        let plan = Fairmis.Rand_plan.make seed in
        let faults = Fault.create ~seed ~drop () in
        let o = algo.alg_run view plan ~faults in
        if Check.is_surviving_mis view ~crashed:o.Mis_sim.Runtime.crashed
             o.Mis_sim.Runtime.output
        then acc.ok <- acc.ok + 1;
        acc.rounds_sum <- acc.rounds_sum + o.Mis_sim.Runtime.rounds;
        acc.dropped_sum <- acc.dropped_sum + o.Mis_sim.Runtime.dropped;
        Fairness.record acc.joins ~in_mis:o.Mis_sim.Runtime.output)
      ~merge:(fun a b ->
        a.ok <- a.ok + b.ok;
        a.rounds_sum <- a.rounds_sum + b.rounds_sum;
        a.dropped_sum <- a.dropped_sum + b.dropped_sum;
        Fairness.merge a.joins b.joins;
        a)
  in
  let mask = Array.init n (View.node_active view) in
  let s = Empirical.summarize (Empirical.of_fairness ~mask a.joins) in
  let per t = float_of_int t /. float_of_int params.trials in
  { algorithm = algo.alg_name; drop; trials = params.trials; valid = a.ok;
    mean_rounds = per a.rounds_sum; mean_dropped = per a.dropped_sum;
    factor = s.Empirical.factor; min_freq = s.Empirical.min_freq;
    max_freq = s.Empirical.max_freq }

let tree_of (params : params) =
  Mis_workload.Trees.random_prufer
    (Splitmix.of_seed (params.seed + 0xF417))
    ~n:params.n

(* Cell-level metrics are updated only here on the coordinating domain,
   after each cell's trials have finished; the trials themselves only
   fill their chunk accumulators, and [~obs] adds the engine's counters
   on the coordinator too, so nothing is shared across domains. *)
let record_cell_metrics reg (c : cell) =
  let open Mis_obs.Metrics in
  incr ~by:c.trials (counter reg "faults.runs");
  incr ~by:c.valid (counter reg "faults.valid_runs");
  observe (histogram reg "faults.mean_rounds") c.mean_rounds;
  observe (histogram reg "faults.mean_dropped") c.mean_dropped;
  set
    (gauge reg
       (Printf.sprintf "faults.factor/%s/drop=%.2f" c.algorithm c.drop))
    c.factor

let measure ?metrics (params : params) =
  if params.trials < 1 then invalid_arg "Faults.measure: trials";
  let view = View.full (tree_of params) in
  List.concat_map
    (fun algo ->
      List.map
        (fun drop ->
          let cell () = measure_cell ?obs:metrics ~params view algo ~drop in
          match metrics with
          | None -> cell ()
          | Some reg ->
            let c =
              Mis_obs.Metrics.time
                (Mis_obs.Metrics.timer reg "faults.cell_seconds")
                cell
            in
            record_cell_metrics reg c;
            c)
        params.rates)
    (algorithms ~repeats:params.repeats)

let rows cells =
  List.map
    (fun c ->
      [ c.algorithm;
        Printf.sprintf "%.2f" c.drop;
        Printf.sprintf "%.1f%%"
          (100. *. float_of_int c.valid /. float_of_int c.trials);
        Printf.sprintf "%.1f" c.mean_rounds;
        Printf.sprintf "%.0f" c.mean_dropped;
        Table.float_cell c.factor;
        Printf.sprintf "%.3f" c.min_freq;
        Printf.sprintf "%.3f" c.max_freq ])
    cells

let header =
  [ "algorithm"; "drop"; "valid"; "rounds"; "lost msgs"; "factor"; "min P";
    "max P" ]

let run_params (params : params) =
  Printf.printf
    "== faults: fairness under message loss (random tree n=%d, %d trials, \
     repeats=%d, seed=%d)\n"
    params.n params.trials params.repeats params.seed;
  let metrics = Mis_obs.Metrics.create () in
  let cells =
    Mis_obs.Metrics.time
      (Mis_obs.Metrics.timer metrics "faults.total_seconds")
      (fun () -> measure ~metrics params)
  in
  Table.print ~header (rows cells);
  (match params.csv with
  | Some path ->
    Csv.write ~path
      ~header:
        [ "algorithm"; "drop"; "trials"; "valid"; "mean_rounds";
          "mean_dropped"; "factor"; "min_p"; "max_p" ]
      (List.map
         (fun c ->
           [ c.algorithm; Printf.sprintf "%.4f" c.drop;
             string_of_int c.trials; string_of_int c.valid;
             Printf.sprintf "%.2f" c.mean_rounds;
             Printf.sprintf "%.2f" c.mean_dropped;
             Table.float_cell c.factor; Printf.sprintf "%.6f" c.min_freq;
             Printf.sprintf "%.6f" c.max_freq ])
         cells);
    Printf.printf "csv written to %s\n" path;
    let mpath = path ^ ".metrics.json" in
    let oc = open_out mpath in
    output_string oc
      (Mis_obs.Metrics.to_json (Mis_obs.Metrics.snapshot metrics));
    output_char oc '\n';
    close_out oc;
    Printf.printf "metrics written to %s\n" mpath
  | None -> ());
  print_newline ()

let run (cfg : Config.t) =
  run_params
    { default_params with
      trials = max 200 (cfg.Config.trials / 10);
      seed = cfg.Config.seed;
      domains = cfg.Config.domains }
