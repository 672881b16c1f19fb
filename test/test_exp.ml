(* Tests for the experiment layer: configuration, table rendering, ASCII
   plots, topology specs, and runner adapters. *)

module Config = Mis_exp.Config
module Table = Mis_exp.Table
module Ascii_plot = Mis_exp.Ascii_plot
module Topo_spec = Mis_exp.Topo_spec
module Runners = Mis_exp.Runners
module Measure = Mis_exp.Measure
module Empirical = Mis_stats.Empirical
module View = Mis_graph.View
module Graph = Mis_graph.Graph

let env pairs name = List.assoc_opt name pairs

let test_config_defaults () =
  let cfg = Config.load ~getenv:(env []) () in
  Alcotest.(check int) "trials" 2000 cfg.Config.trials;
  Alcotest.(check int) "seed" 1 cfg.Config.seed;
  Alcotest.(check bool) "quick mode" false cfg.Config.full;
  Alcotest.(check bool) "nyc small" true (cfg.Config.nyc = Config.Nyc_small)

let test_config_full_mode () =
  let cfg = Config.load ~getenv:(env [ ("FAIRMIS_FULL", "1") ]) () in
  Alcotest.(check int) "paper trials" 10_000 cfg.Config.trials;
  Alcotest.(check bool) "nyc full" true (cfg.Config.nyc = Config.Nyc_full)

let test_config_overrides () =
  let cfg =
    Config.load
      ~getenv:
        (env
           [ ("FAIRMIS_TRIALS", "123"); ("FAIRMIS_SEED", "9");
             ("FAIRMIS_DOMAINS", "3"); ("FAIRMIS_NYC", "skip") ])
      ()
  in
  Alcotest.(check int) "trials" 123 cfg.Config.trials;
  Alcotest.(check int) "seed" 9 cfg.Config.seed;
  Alcotest.(check bool) "domains" true (cfg.Config.domains = Some 3);
  Alcotest.(check bool) "nyc skip" true (cfg.Config.nyc = Config.Nyc_skip)

let test_config_garbage_ignored () =
  let cfg =
    Config.load ~getenv:(env [ ("FAIRMIS_TRIALS", "banana") ]) ()
  in
  Alcotest.(check int) "fallback" 2000 cfg.Config.trials

let test_config_montecarlo () =
  let cfg = Config.load ~getenv:(env [ ("FAIRMIS_TRIALS", "77") ]) () in
  let mc = Config.montecarlo cfg in
  Alcotest.(check int) "trials forwarded" 77 mc.Mis_stats.Montecarlo.trials;
  let probe = Config.montecarlo ~trials:5 cfg in
  Alcotest.(check int) "trials override" 5 probe.Mis_stats.Montecarlo.trials;
  Alcotest.(check int) "seed kept" cfg.Config.seed
    probe.Mis_stats.Montecarlo.base_seed

(* Table *)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "long"; "22" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "rows" 4 (List.length lines);
  (* All lines share the same width. *)
  match lines with
  | first :: rest ->
    List.iter
      (fun l -> Alcotest.(check int) "aligned" (String.length first) (String.length l))
      rest
  | [] -> Alcotest.fail "empty render"

let test_table_float_cell () =
  Alcotest.(check string) "finite" "3.14" (Table.float_cell 3.14159);
  Alcotest.(check string) "inf" "inf" (Table.float_cell infinity);
  Alcotest.(check string) "nan" "nan" (Table.float_cell nan)

(* Ascii plot *)

let test_ascii_plot () =
  let series =
    { Ascii_plot.label = 'X'; name = "test";
      points = [| (0.0, 0.1); (0.5, 0.6); (1.0, 1.0) |] }
  in
  let out = Ascii_plot.cdf_panel ~title:"panel" [ series ] in
  Alcotest.(check bool) "has title" true
    (String.length out > 5 && String.sub out 0 5 = "panel");
  Alcotest.(check bool) "uses glyph" true (String.contains out 'X');
  Alcotest.(check bool) "mentions legend" true
    (String.length out > 0
    &&
    let rec contains_sub i =
      i + 4 <= String.length out
      && (String.sub out i 4 = "test" || contains_sub (i + 1))
    in
    contains_sub 0)

(* Topo specs *)

let test_topo_spec_all_names_parse () =
  List.iter
    (fun spec ->
      if spec = "nyc:seed=1" (* too slow for a unit test *)
         || String.length spec >= 5 && String.sub spec 0 5 = "file:" (* needs a file *)
      then ()
      else
        match Topo_spec.parse spec with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s failed: %s" spec e)
    Topo_spec.names

let test_topo_spec_params () =
  (match Topo_spec.parse "star:n=33" with
  | Ok g -> Alcotest.(check int) "star n" 33 (Graph.n g)
  | Error e -> Alcotest.fail e);
  (match Topo_spec.parse "grid:w=3,h=4" with
  | Ok g -> Alcotest.(check int) "grid n" 12 (Graph.n g)
  | Error e -> Alcotest.fail e);
  match Topo_spec.parse "cone:k=5" with
  | Ok g -> Alcotest.(check int) "cone n" 11 (Graph.n g)
  | Error e -> Alcotest.fail e

let test_topo_spec_unknown () =
  Alcotest.(check bool) "unknown name" true
    (match Topo_spec.parse "banana:n=2" with Error _ -> true | Ok _ -> false)

let test_topo_spec_bad_params_rejected () =
  let error_mentions spec needles =
    match Topo_spec.parse spec with
    | Ok _ -> Alcotest.failf "%s accepted" spec
    | Error e ->
      List.iter
        (fun needle ->
          let n = String.length needle in
          let rec has i =
            i + n <= String.length e && (String.sub e i n = needle || has (i + 1))
          in
          if not (has 0) then Alcotest.failf "%s: %S does not name %S" spec e needle)
        needles
  in
  error_mentions "star:n=banana" [ "star"; "n" ];
  error_mentions "star:nn=100" [ "star"; "nn" ];
  error_mentions "grid:w=10,height=3" [ "grid"; "height" ];
  error_mentions "star:n=5,foo" [ "star"; "foo" ];
  error_mentions "randombipartite:p=x" [ "randombipartite"; "p" ]

let test_topo_spec_invalid_params_reported () =
  Alcotest.(check bool) "invalid params give Error" true
    (match Topo_spec.parse "evencycle:n=7" with Error _ -> true | Ok _ -> false)

(* Runners: every registered runner yields a valid MIS. *)

let test_runners_valid () =
  let g = Mis_workload.Planar.triangular_grid ~width:5 ~height:4 in
  let view = View.full g in
  List.iter
    (fun runner ->
      let mis = runner.Runners.run view ~seed:3 in
      Fairmis.Mis.verify ~name:runner.Runners.name view mis)
    [ Runners.luby; Runners.fair_tree; Runners.fair_bipart;
      Runners.greedy_permutation; Runners.color_mis_planar;
      Runners.color_mis_greedy ]

(* FairRooted on a non-tree raises [Unsupported] when the view is
   applied, before any seed; the CLI turns it into a usage error. *)
let test_fair_rooted_rejects_non_tree () =
  let fair_rooted = Result.get_ok (Runners.find "fairrooted") in
  List.iter
    (fun g ->
      Alcotest.check_raises "non-tree"
        (Runners.Unsupported "fairrooted requires a tree topology")
        (fun () ->
          let (_ : seed:int -> bool array) = fair_rooted.Runners.run (View.full g) in
          ()))
    [ Mis_workload.Planar.triangular_grid ~width:4 ~height:4;
      Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] ];
  let tree = Helpers.random_tree ~seed:3 ~n:50 in
  let mis = fair_rooted.Runners.run (View.full tree) ~seed:1 in
  Fairmis.Mis.verify ~name:"fairrooted" (View.full tree) mis

(* Registry *)

let test_registry () =
  Alcotest.(check int) "18 experiments" 18 (List.length Mis_exp.Registry.all);
  Alcotest.(check bool) "find table1" true (Mis_exp.Registry.find "table1" <> None);
  Alcotest.(check bool) "unknown" true (Mis_exp.Registry.find "nope" = None);
  let ids = Mis_exp.Registry.ids () in
  Alcotest.(check bool) "unique ids" true
    (List.length ids = List.length (List.sort_uniq compare ids))

(* Config: FAIRMIS_DOMAINS must be >= 1; anything else falls back to the
   engine default (None). *)

let test_config_domains_validation () =
  let domains_of v =
    (Config.load ~getenv:(env [ ("FAIRMIS_DOMAINS", v) ]) ()).Config.domains
  in
  Alcotest.(check bool) "valid" true (domains_of "4" = Some 4);
  Alcotest.(check bool) "zero rejected" true (domains_of "0" = None);
  Alcotest.(check bool) "negative rejected" true (domains_of "-3" = None);
  Alcotest.(check bool) "garbage rejected" true (domains_of "many" = None);
  Alcotest.(check bool) "unset" true (domains_of "" = None)

(* Golden experiment output: enabling parallelism must not move a single
   digit. The rows below were produced at [domains = 1] and are pinned;
   the same measurement at 4 domains has to reproduce them exactly. *)

let faults_rows ?metrics domains =
  let params =
    { Mis_exp.Faults.n = 40; trials = 30; rates = [ 0.; 0.05 ]; repeats = 2;
      seed = 3; domains; csv = None }
  in
  Mis_exp.Faults.measure ?metrics params
  |> List.map (fun c ->
         Printf.sprintf "%s,%.2f,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f"
           c.Mis_exp.Faults.algorithm c.Mis_exp.Faults.drop
           c.Mis_exp.Faults.trials c.Mis_exp.Faults.valid
           c.Mis_exp.Faults.mean_rounds c.Mis_exp.Faults.mean_dropped
           c.Mis_exp.Faults.factor c.Mis_exp.Faults.min_freq
           c.Mis_exp.Faults.max_freq)

let faults_golden =
  [ "Luby's,0.00,30,30,11.0667,0.0000,5.0000,0.1667,0.8333";
    "Luby's,0.05,30,13,11.2667,10.2000,5.2000,0.1667,0.8667";
    "FairTree,0.00,30,30,323.0000,0.0000,3.2857,0.2333,0.7667";
    "FairTree,0.05,30,28,323.6667,698.3000,2.7500,0.2667,0.7333" ]

(* The counters [Faults.measure ~metrics] records: its own per-cell
   counts and the engine's, neither of which may depend on the domain
   count (4 cells of 30 trials, one trial per chunk). *)
let faults_counters domains =
  let metrics = Mis_obs.Metrics.create () in
  let rows = faults_rows ~metrics domains in
  let snap = Mis_obs.Metrics.snapshot metrics in
  ( rows,
    List.map
      (fun name -> (name, Mis_obs.Metrics.find_counter snap name))
      [ "faults.runs"; "faults.valid_runs"; "parallel.tasks";
        "parallel.chunks" ] )

let test_faults_rows_domain_invariant () =
  let serial_rows, serial_counters = faults_counters (Some 1) in
  let par_rows, par_counters = faults_counters (Some 4) in
  Alcotest.(check (list string)) "serial matches golden" faults_golden
    serial_rows;
  Alcotest.(check (list string)) "4 domains matches golden" faults_golden
    par_rows;
  let counters = Alcotest.(list (pair string (option int))) in
  Alcotest.check counters "serial counters"
    [ ("faults.runs", Some 120); ("faults.valid_runs", Some 101);
      ("parallel.tasks", Some 120); ("parallel.chunks", Some 120) ]
    serial_counters;
  Alcotest.check counters "4-domain counters match serial" serial_counters
    par_counters

let test_estimate_domain_invariant () =
  (* The fig4 pipeline's core: a seeded Monte Carlo estimate over a tree.
     Pinned at domains = 1; parallel runs must agree to the last digit. *)
  let view =
    View.full
      (Mis_workload.Trees.random_prufer (Mis_util.Splitmix.of_seed 8) ~n:40)
  in
  let summary domains =
    let cfg =
      { Mis_stats.Montecarlo.trials = 300; base_seed = 5; domains }
    in
    let e =
      Mis_stats.Montecarlo.estimate cfg view (fun ~seed ->
          Fairmis.Luby.run view (Fairmis.Rand_plan.make seed))
    in
    Printf.sprintf "factor=%.6f min=%.6f max=%.6f"
      (Mis_stats.Empirical.inequality_factor e)
      (Mis_stats.Empirical.min_frequency e)
      (Mis_stats.Empirical.summarize e).Mis_stats.Empirical.max_freq
  in
  let golden = "factor=7.108108 min=0.123333 max=0.876667" in
  Alcotest.(check string) "serial matches golden" golden (summary (Some 1));
  Alcotest.(check string) "4 domains matches golden" golden
    (summary (Some 4));
  Alcotest.(check string) "8 domains matches golden" golden
    (summary (Some 8))

(* The [fairness] command counts joins from each algorithm's plain runner
   through the trial harness; those counts must equal the ones the
   traced message programs produce under the same seeds, for every
   traceable runner and at any domain count. *)
let test_plain_runners_match_traced () =
  let n = 40 and trials = 24 and base_seed = 3 in
  let view = View.full (Helpers.random_tree ~seed:6 ~n) in
  Alcotest.(check (list string)) "traceable keys"
    [ "luby"; "luby-degree"; "fairtree"; "fairbipart"; "colormis" ]
    (List.map (fun (r : Runners.t) -> r.Runners.key) Runners.traceable);
  List.iter
    (fun (r : Runners.t) ->
      match r.Runners.traced with
      | None -> ()
      | Some run_traced ->
        let traced = Mis_obs.Fairness.create ~n in
        for i = 0 to trials - 1 do
          let o =
            run_traced view ~seed:(base_seed + i) ~tracer:Mis_obs.Trace.null
          in
          Mis_obs.Fairness.record traced ~in_mis:o.Mis_sim.Runtime.output
        done;
        List.iter
          (fun domains ->
            let joins =
              Mis_stats.Montecarlo.run
                { Mis_stats.Montecarlo.trials; base_seed; domains = Some domains }
                ~n (r.Runners.run view)
            in
            Alcotest.check Helpers.int_array
              (Printf.sprintf "%s at %d domains" r.Runners.key domains)
              (Mis_obs.Fairness.joins traced)
              (Mis_obs.Fairness.joins joins))
          [ 1; 4 ])
    Runners.traceable

(* Workloads: Table I rows carry the paper's numbers. *)

let test_workloads_paper_numbers () =
  let cfg = Config.load ~getenv:(env [ ("FAIRMIS_NYC", "skip") ]) () in
  let trees = Mis_exp.Workloads.table1_trees cfg in
  Alcotest.(check int) "five rows without nyc" 5 (List.length trees);
  let binary = List.hd trees in
  Alcotest.(check bool) "paper factor recorded" true
    (binary.Mis_exp.Workloads.paper_luby = Some 3.07)

(* The multi-algorithm measure report on one 500-node random tree (the
   Pruefer seed 64029 = 1 + 0xFA1C), 1,000 runs from seed 1: pinned
   factors and join-probability ranges, and the same joins and CSV bytes
   at 1 and 2 domains. *)
let test_measure_report_pinned () =
  let spec = "prufer:n=500,seed=64029" in
  let view = View.full (Result.get_ok (Topo_spec.parse spec)) in
  let report domains =
    let cfg =
      { Config.trials = 1000; seed = 1; domains = Some domains;
        nyc = Config.Nyc_skip; full = false }
    in
    let csv = Filename.temp_file "fairmis_measure" ".csv" in
    Fun.protect
      ~finally:(fun () -> Sys.remove csv)
      (fun () ->
        let rows =
          Measure.report ~csv cfg ~spec view [ Runners.fair_tree; Runners.luby ]
        in
        ( List.map
            (fun { Measure.runner; joins; summary = s } ->
              ( Printf.sprintf "%s %s %.3f-%.3f" runner.Runners.name
                  (Table.float_cell s.Empirical.factor)
                  s.Empirical.min_freq s.Empirical.max_freq,
                Mis_obs.Fairness.joins joins ))
            rows,
          In_channel.with_open_bin csv In_channel.input_all ))
  in
  let rows1, csv1 = report 1 and rows2, csv2 = report 2 in
  Alcotest.(check (list string)) "pinned factors"
    [ "FairTree 2.85 0.260-0.740"; "Luby's 5.02 0.166-0.834" ]
    (List.map fst rows1);
  Alcotest.(check (list string)) "2 domains: same rows" (List.map fst rows1)
    (List.map fst rows2);
  Alcotest.(check (list Helpers.int_array)) "2 domains: same joins"
    (List.map snd rows1) (List.map snd rows2);
  Alcotest.(check string) "2 domains: same csv" csv1 csv2

let suite =
  [ ( "exp.config",
      [ Alcotest.test_case "defaults" `Quick test_config_defaults;
        Alcotest.test_case "full mode" `Quick test_config_full_mode;
        Alcotest.test_case "overrides" `Quick test_config_overrides;
        Alcotest.test_case "garbage ignored" `Quick test_config_garbage_ignored;
        Alcotest.test_case "montecarlo forwarding" `Quick test_config_montecarlo;
        Alcotest.test_case "domains validation" `Quick
          test_config_domains_validation ] );
    ( "exp.golden",
      [ Alcotest.test_case "faults rows domain-invariant" `Slow
          test_faults_rows_domain_invariant;
        Alcotest.test_case "estimate domain-invariant" `Quick
          test_estimate_domain_invariant;
        Alcotest.test_case "measure report pinned" `Quick
          test_measure_report_pinned ] );
    ( "exp.render",
      [ Alcotest.test_case "table" `Quick test_table_render;
        Alcotest.test_case "float cell" `Quick test_table_float_cell;
        Alcotest.test_case "ascii plot" `Quick test_ascii_plot ] );
    ( "exp.topo_spec",
      [ Alcotest.test_case "all names parse" `Slow test_topo_spec_all_names_parse;
        Alcotest.test_case "params" `Quick test_topo_spec_params;
        Alcotest.test_case "unknown" `Quick test_topo_spec_unknown;
        Alcotest.test_case "bad params rejected" `Quick
          test_topo_spec_bad_params_rejected;
        Alcotest.test_case "invalid params reported" `Quick
          test_topo_spec_invalid_params_reported ] );
    ( "exp.runners",
      [ Alcotest.test_case "all runners valid" `Quick test_runners_valid;
        Alcotest.test_case "plain runners match traced joins" `Quick
          test_plain_runners_match_traced;
        Alcotest.test_case "fairrooted rejects non-trees" `Quick
          test_fair_rooted_rejects_non_tree ] );
    ( "exp.registry",
      [ Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "workloads carry paper numbers" `Quick
          test_workloads_paper_numbers ] ) ]
