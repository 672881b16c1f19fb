module View = Mis_graph.View
module Rand_plan = Fairmis.Rand_plan

type traced_run =
  Mis_graph.View.t -> seed:int -> tracer:Mis_obs.Trace.sink ->
  Mis_sim.Runtime.outcome

type t = {
  key : string;
  name : string;
  run : Mis_graph.View.t -> seed:int -> bool array;
  buffered : (Mis_graph.View.t -> unit -> seed:int -> bool array) option;
  traced : traced_run option;
}

(* Luby and FairTree compile the view into one kernel when [run view] or
   [buffered view] is applied; every seeded call then runs on that
   kernel, from any domain (the kernel pools its scratch per concurrent
   run). Each [()] of [buffered view] takes one outcome that all its
   trials write into; [run] takes a fresh one per call. *)
let on_kernel exec view =
  let kernel = Mis_sim.Kernel.create view in
  fun () ->
    let into = Mis_sim.Kernel.make_outcome kernel in
    fun ~seed -> (exec ~into kernel (Rand_plan.make seed)).Mis_sim.Kernel.output

let kernel_runner ~key ~name exec traced =
  { key; name;
    run =
      (fun view ->
        let trials = on_kernel exec view in
        fun ~seed -> trials () ~seed);
    buffered = Some (on_kernel exec);
    traced = Some traced }

let greedy_coloring view plan =
  let c = Fairmis.Distributed_coloring.randomized_greedy view plan in
  (c.Fairmis.Distributed_coloring.colors, c.Fairmis.Distributed_coloring.palette)

let luby =
  kernel_runner ~key:"luby" ~name:"Luby's"
    (fun ~into k plan -> Fairmis.Luby.run_kernel_on ~into k plan)
    (fun view ~seed ~tracer ->
      Fairmis.Luby.run_distributed ~tracer view (Rand_plan.make seed))

let luby_degree =
  { key = "luby-degree"; name = "Luby-A(degree)";
    run =
      (fun view ~seed -> Fairmis.Luby_degree.run view (Rand_plan.make seed));
    buffered = None;
    traced =
      Some
        (fun view ~seed ~tracer ->
          Fairmis.Luby_degree.run_distributed ~tracer view
            (Rand_plan.make seed)) }

let fair_tree =
  kernel_runner ~key:"fairtree" ~name:"FairTree"
    (fun ~into k plan -> Fairmis.Fair_tree_distributed.run_kernel_on ~into k plan)
    (fun view ~seed ~tracer ->
      Fairmis.Fair_tree_distributed.run ~tracer view (Rand_plan.make seed))

let fair_bipart =
  { key = "fairbipart"; name = "FairBipart";
    run = (fun view ~seed -> Fairmis.Fair_bipart.run view (Rand_plan.make seed));
    buffered = None;
    traced =
      Some
        (fun view ~seed ~tracer ->
          Fairmis.Fair_bipart_distributed.run ~tracer view
            (Rand_plan.make seed)) }

let color_mis_greedy =
  { key = "colormis"; name = "ColorMIS(greedy)";
    run =
      (fun view ~seed ->
        let plan = Rand_plan.make seed in
        let coloring, k = greedy_coloring view plan in
        Fairmis.Color_mis.run view ~coloring ~k plan);
    buffered = None;
    traced =
      Some
        (fun view ~seed ~tracer ->
          let plan = Rand_plan.make seed in
          let coloring, k = greedy_coloring view plan in
          Fairmis.Color_mis_distributed.run ~tracer view ~coloring ~k plan) }

let color_mis_planar =
  { key = "colormis-planar"; name = "ColorMIS(planar)";
    run =
      (fun view ~seed ->
        fst (Fairmis.Color_mis.run_planar view (Rand_plan.make seed)));
    buffered = None;
    traced = None }

let color_mis_adaptive =
  { key = "colormis-adaptive"; name = "ColorMIS(adaptive)";
    run =
      (fun view ~seed ->
        let plan = Rand_plan.make seed in
        let coloring, _ = greedy_coloring view plan in
        fst (Fairmis.Color_mis.run_adaptive view ~coloring plan));
    buffered = None;
    traced = None }

let greedy_permutation =
  { key = "greedy"; name = "RandPermGreedy";
    run =
      (fun view ~seed ->
        Fairmis.Centralized.greedy_random_permutation view
          (Mis_util.Splitmix.of_seed seed));
    buffered = None;
    traced = None }

exception Unsupported of string

let fair_rooted =
  { key = "fairrooted"; name = "FairRooted";
    run =
      (fun view ->
        if not (Mis_graph.Traverse.is_tree view) then
          raise (Unsupported "fairrooted requires a tree topology");
        let t = Mis_graph.Rooted.of_tree (View.graph view) ~root:0 in
        fun ~seed -> Fairmis.Fair_rooted.run t (Rand_plan.make seed));
    buffered = None;
    traced = None }

let all =
  [ luby; luby_degree; fair_tree; fair_bipart; color_mis_greedy;
    color_mis_planar; color_mis_adaptive; greedy_permutation; fair_rooted ]

let keys l = String.concat ", " (List.map (fun r -> r.key) l)

let find key =
  match List.find_opt (fun r -> r.key = key) all with
  | Some r -> Ok r
  | None -> Error (Printf.sprintf "unknown algorithm %S (known: %s)" key (keys all))

let traceable = List.filter (fun r -> r.traced <> None) all

let find_traced key =
  let traced_of r =
    match r.traced with Some tr when r.key = key -> Some (r, tr) | _ -> None
  in
  match List.find_map traced_of all with
  | Some found -> Ok found
  | None ->
    Error
      (Printf.sprintf "algorithm %S is not traceable (traceable: %s)" key
         (keys traceable))

(* Profiling (FAIRMIS_PROF=1): one span per measured runner; validation
   gets its own child span (recorded on the worker domain that runs it).
   [runner.buffered view] (else [runner.run view]) is applied once, so a
   compiled runner serves every trial on every domain, each domain
   writing its trials into one outcome of its own. *)
let joins cfg view runner =
  Mis_obs.Prof.gspan ("measure." ^ runner.name) (fun () ->
      let trials =
        match runner.buffered with
        | Some buffered -> buffered view
        | None ->
          let run = runner.run view in
          fun () -> run
      in
      Mis_stats.Montecarlo.run_buffered
        ~check:(fun mis ->
          Mis_obs.Prof.gspan "validate" (fun () ->
              Fairmis.Mis.verify ~name:runner.name view mis))
        (Config.montecarlo cfg) ~n:(View.n view) trials)

let measure cfg view runner =
  Mis_stats.Montecarlo.empirical view (joins cfg view runner)
