module View = Mis_graph.View
module Rand_plan = Fairmis.Rand_plan

type t = {
  name : string;
  run : Mis_graph.View.t -> seed:int -> bool array;
}

(* Luby and FairTree compile the view into one kernel when [run view] is
   applied; every seeded call then runs on that kernel, from any domain
   (the kernel pools its scratch per concurrent run). *)
let on_kernel exec view =
  let kernel = Mis_sim.Kernel.create view in
  fun ~seed -> (exec kernel (Rand_plan.make seed)).Mis_sim.Kernel.output

let luby =
  { name = "Luby's";
    run = on_kernel Fairmis.Luby.run_kernel_on }

let fair_tree =
  { name = "FairTree";
    run = on_kernel Fairmis.Fair_tree_distributed.run_kernel_on }

let luby_degree =
  { name = "Luby-A(degree)";
    run =
      (fun view ~seed -> Fairmis.Luby_degree.run view (Rand_plan.make seed)) }

let fair_bipart =
  { name = "FairBipart";
    run = (fun view ~seed -> Fairmis.Fair_bipart.run view (Rand_plan.make seed)) }

let greedy_permutation =
  { name = "RandPermGreedy";
    run =
      (fun view ~seed ->
        Fairmis.Centralized.greedy_random_permutation view
          (Mis_util.Splitmix.of_seed seed)) }

let color_mis_planar =
  { name = "ColorMIS(planar)";
    run =
      (fun view ~seed ->
        fst (Fairmis.Color_mis.run_planar view (Rand_plan.make seed))) }

let color_mis_greedy =
  { name = "ColorMIS(greedy)";
    run =
      (fun view ~seed ->
        let plan = Rand_plan.make seed in
        let coloring = Fairmis.Distributed_coloring.randomized_greedy view plan in
        Fairmis.Color_mis.run view
          ~coloring:coloring.Fairmis.Distributed_coloring.colors
          ~k:coloring.Fairmis.Distributed_coloring.palette plan) }

type traced = {
  t_name : string;
  t_display : string;
  t_run :
    Mis_graph.View.t ->
    seed:int ->
    tracer:Mis_obs.Trace.sink ->
    Mis_sim.Runtime.outcome;
}

let traced =
  [ { t_name = "luby"; t_display = "Luby's";
      t_run =
        (fun view ~seed ~tracer ->
          Fairmis.Luby.run_distributed ~tracer view (Rand_plan.make seed)) };
    { t_name = "luby-degree"; t_display = "Luby-A(degree)";
      t_run =
        (fun view ~seed ~tracer ->
          Fairmis.Luby_degree.run_distributed ~tracer view
            (Rand_plan.make seed)) };
    { t_name = "fairtree"; t_display = "FairTree";
      t_run =
        (fun view ~seed ~tracer ->
          Fairmis.Fair_tree_distributed.run ~tracer view (Rand_plan.make seed)) };
    { t_name = "fairbipart"; t_display = "FairBipart";
      t_run =
        (fun view ~seed ~tracer ->
          Fairmis.Fair_bipart_distributed.run ~tracer view
            (Rand_plan.make seed)) };
    { t_name = "colormis"; t_display = "ColorMIS(greedy)";
      t_run =
        (fun view ~seed ~tracer ->
          let plan = Rand_plan.make seed in
          let coloring =
            Fairmis.Distributed_coloring.randomized_greedy view plan
          in
          Fairmis.Color_mis_distributed.run ~tracer view
            ~coloring:coloring.Fairmis.Distributed_coloring.colors
            ~k:coloring.Fairmis.Distributed_coloring.palette plan) } ]

let find_traced name =
  List.find_opt (fun t -> t.t_name = name) traced

(* Profiling (FAIRMIS_PROF=1): one span per measured runner; validation
   gets its own child span (recorded on the worker domain that runs it).
   [runner.run view] is applied once, so a compiled runner serves every
   trial on every domain. *)
let measure cfg view runner =
  Mis_obs.Prof.gspan ("measure." ^ runner.name) (fun () ->
      Mis_stats.Montecarlo.estimate
        ~check:(fun mis ->
          Mis_obs.Prof.gspan "validate" (fun () ->
              Fairmis.Mis.verify ~name:runner.name view mis))
        (Config.montecarlo cfg) view (runner.run view))
