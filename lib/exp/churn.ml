module Splitmix = Mis_util.Splitmix
module Maintain = Mis_dyn.Maintain
module Serve = Mis_dyn.Serve
module Dyn_graph = Mis_dyn.Dyn_graph
module Churn_gen = Mis_workload.Churn
module Metrics = Mis_obs.Metrics
module Fairness = Mis_obs.Fairness
module Empirical = Mis_stats.Empirical

(* Exact offline nearest-rank percentile; [nan] on an empty sample set
   (mirrors [factor_max] below). *)
let pct xs q =
  Option.value ~default:Float.nan (Mis_obs.Sketch.nearest_rank xs q)

type params = {
  churn : Churn_gen.params;
  window : int;
  seeds : int list;
  csv : string option;
}

let default_params =
  { churn = { Churn_gen.default with batches = 120 };
    window = 20;
    seeds = [ 1 ];
    csv = None }

type cell = {
  seed : int;
  batches : int;
  events : int;
  applied : int;
  skipped : int;
  live_mean : float;
  region_mean : float;
  region_max : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  escalations : int;
  full_recomputes : int;
  flips : int;
  violations : int;
  factor_median : float;
  factor_max : float;
  infinite_windows : int;
  evictions : int;
  evict_max : int;
  evict_factor : float;
  redecide_max : int;
  redecide_factor : float;
}

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* One window's inequality factor, over the nodes that were alive at
   every recorded batch: part-time nodes would contribute spurious zero
   frequencies (factor = infinity by the paper's convention), and the
   windowed view is exactly the long-running service question — does a
   node that stays up get its share of MIS membership? *)
let window_factor fair ~stable =
  let e = Empirical.of_fairness ~mask:stable fair in
  if Empirical.node_count e = 0 then None
  else Some (Empirical.inequality_factor e)

(* Repair-fairness inequality over per-node counts: max / mean across
   the nodes that were ever alive. Max/mean rather than the paper's
   max/min because a quiet node legitimately has count 0 — the question
   is whether churn load concentrates, not whether it reaches everyone.
   [nan] when nothing was counted. *)
let count_factor counts ~ever_alive =
  let sum = ref 0 and n = ref 0 and mx = ref 0 in
  Array.iteri
    (fun u c ->
      if ever_alive.(u) then begin
        incr n;
        sum := !sum + c;
        if c > !mx then mx := c
      end)
    counts;
  if !sum = 0 then nan else float_of_int !mx *. float_of_int !n /. float_of_int !sum

let measure_cell ?metrics (params : params) ~seed =
  if params.window < 1 then invalid_arg "Churn.measure_cell: window";
  let p = params.churn in
  let stream = Churn_gen.generate (Splitmix.of_seed seed) p in
  let reg = match metrics with Some r -> r | None -> Metrics.create () in
  let cfg =
    { Maintain.default_config with
      seed; check_every = 1; metrics = Some reg }
  in
  let m = Maintain.create ~config:cfg ~capacity:p.Churn_gen.capacity () in
  let g = Maintain.graph m in
  let capacity = p.Churn_gen.capacity in
  let events = ref 0 and applied = ref 0 and skipped = ref 0 in
  let escalations = ref 0 and fulls = ref 0 and flips = ref 0 in
  let region_sum = ref 0 and region_max = ref 0 and live_sum = ref 0 in
  let seconds = ref [] in
  let fair = ref (Fairness.create ~n:capacity) in
  let stable = Array.make capacity true in
  (* Repair fairness: is it the same nodes that keep getting evicted
     from (or re-decided into) the set? *)
  let evict = Array.make capacity 0 in
  let redecide = Array.make capacity 0 in
  let ever_alive = Array.make capacity false in
  let prev_mis = ref (Maintain.mis m) in
  let win_len = ref 0 in
  let factors = ref [] and infinite = ref 0 in
  let close_window () =
    if !win_len > 0 then begin
      (match window_factor !fair ~stable with
      | Some f when Float.is_finite f -> factors := f :: !factors
      | Some _ -> incr infinite
      | None -> ());
      fair := Fairness.create ~n:capacity;
      Array.fill stable 0 capacity true;
      win_len := 0
    end
  in
  let batches = ref 0 in
  List.iter
    (fun batch ->
      let r = Maintain.apply_batch m batch in
      incr batches;
      events := !events + r.Maintain.events;
      applied := !applied + r.Maintain.applied;
      skipped := !skipped + r.Maintain.skipped;
      if r.Maintain.escalated then incr escalations;
      if r.Maintain.full_recompute then incr fulls;
      flips := !flips + r.Maintain.flips;
      let rs = Array.length r.Maintain.region_nodes in
      region_sum := !region_sum + rs;
      region_max := max !region_max rs;
      live_sum := !live_sum + r.Maintain.live;
      seconds := r.Maintain.repair_seconds :: !seconds;
      let now = Maintain.mis m in
      Fairness.record !fair ~in_mis:now;
      Array.iter (fun u -> redecide.(u) <- redecide.(u) + 1)
        r.Maintain.region_nodes;
      for u = 0 to capacity - 1 do
        let alive = Dyn_graph.alive g u in
        if not alive then stable.(u) <- false
        else begin
          ever_alive.(u) <- true;
          (* An eviction is a member pushed out by repair while still
             up — departures and crashes are churn, not unfairness. *)
          if !prev_mis.(u) && not now.(u) then evict.(u) <- evict.(u) + 1
        end
      done;
      prev_mis := now;
      incr win_len;
      if !win_len = params.window then close_window ())
    stream;
  close_window ();
  (* Per-node distributions into the registry, over ever-alive nodes
     (zeros included: the histogram's mass at 0 is the equitable case). *)
  let ev_hist = Metrics.histogram reg "churn.evictions_per_node" in
  let rd_hist = Metrics.histogram reg "churn.redecides_per_node" in
  Array.iteri
    (fun u alive ->
      if alive then begin
        Metrics.observe_int ev_hist evict.(u);
        Metrics.observe_int rd_hist redecide.(u)
      end)
    ever_alive;
  let ms = Array.of_list (List.rev_map (fun s -> 1000. *. s) !seconds) in
  let per sum = float_of_int sum /. float_of_int (max 1 !batches) in
  { seed;
    batches = !batches;
    events = !events;
    applied = !applied;
    skipped = !skipped;
    live_mean = per !live_sum;
    region_mean = per !region_sum;
    region_max = !region_max;
    p50_ms = pct ms 0.50;
    p95_ms = pct ms 0.95;
    p99_ms = pct ms 0.99;
    escalations = !escalations;
    full_recomputes = !fulls;
    flips = !flips;
    violations =
      Metrics.counter_value (Metrics.counter reg "dyn.invariant_violations");
    factor_median = median !factors;
    factor_max =
      (match !factors with [] -> nan | fs -> List.fold_left max neg_infinity fs);
    infinite_windows = !infinite;
    evictions = Array.fold_left ( + ) 0 evict;
    evict_max = Array.fold_left max 0 evict;
    evict_factor = count_factor evict ~ever_alive;
    redecide_max = Array.fold_left max 0 redecide;
    redecide_factor = count_factor redecide ~ever_alive }

let measure ?metrics (params : params) =
  List.map (fun seed -> measure_cell ?metrics params ~seed) params.seeds

let header =
  [ "seed"; "batches"; "events"; "applied"; "live"; "region"; "max rg";
    "p50ms"; "p95ms"; "p99ms"; "esc"; "full"; "flips"; "viol"; "factor";
    "evict"; "evfac"; "rdfac" ]

let rows cells =
  List.map
    (fun c ->
      [ string_of_int c.seed;
        string_of_int c.batches;
        string_of_int c.events;
        string_of_int c.applied;
        Printf.sprintf "%.0f" c.live_mean;
        Printf.sprintf "%.1f" c.region_mean;
        string_of_int c.region_max;
        Printf.sprintf "%.2f" c.p50_ms;
        Printf.sprintf "%.2f" c.p95_ms;
        Printf.sprintf "%.2f" c.p99_ms;
        string_of_int c.escalations;
        string_of_int c.full_recomputes;
        string_of_int c.flips;
        string_of_int c.violations;
        Table.float_cell c.factor_median;
        string_of_int c.evictions;
        Table.float_cell c.evict_factor;
        Table.float_cell c.redecide_factor ])
    cells

let run_params (params : params) =
  let p = params.churn in
  Printf.printf
    "== churn: dynamic MIS under heavy-tailed churn (capacity=%d, \
     initial=%d, batches=%d, window=%d, Pareto alpha=%g)\n"
    p.Churn_gen.capacity p.Churn_gen.initial p.Churn_gen.batches
    params.window p.Churn_gen.lifetime_alpha;
  let metrics = Metrics.create () in
  let cells =
    Metrics.time (Metrics.timer metrics "churn.total_seconds") (fun () ->
        measure ~metrics params)
  in
  Table.print ~header (rows cells);
  (match params.csv with
  | Some path ->
    Csv.write ~path
      ~header:
        [ "seed"; "batches"; "events"; "applied"; "skipped"; "live_mean";
          "region_mean"; "region_max"; "p50_ms"; "p95_ms"; "p99_ms";
          "escalations"; "full_recomputes"; "flips"; "violations";
          "factor_median"; "factor_max"; "infinite_windows"; "evictions";
          "evict_max"; "evict_factor"; "redecide_max"; "redecide_factor" ]
      (List.map
         (fun c ->
           [ string_of_int c.seed; string_of_int c.batches;
             string_of_int c.events; string_of_int c.applied;
             string_of_int c.skipped; Printf.sprintf "%.2f" c.live_mean;
             Printf.sprintf "%.2f" c.region_mean;
             string_of_int c.region_max; Printf.sprintf "%.4f" c.p50_ms;
             Printf.sprintf "%.4f" c.p95_ms; Printf.sprintf "%.4f" c.p99_ms;
             string_of_int c.escalations; string_of_int c.full_recomputes;
             string_of_int c.flips; string_of_int c.violations;
             Table.float_cell c.factor_median;
             Table.float_cell c.factor_max;
             string_of_int c.infinite_windows;
             string_of_int c.evictions;
             string_of_int c.evict_max;
             Table.float_cell c.evict_factor;
             string_of_int c.redecide_max;
             Table.float_cell c.redecide_factor ])
         cells);
    Printf.printf "csv written to %s\n" path;
    let mpath = path ^ ".metrics.json" in
    let oc = open_out mpath in
    output_string oc (Metrics.to_json (Metrics.snapshot metrics));
    output_char oc '\n';
    close_out oc;
    Printf.printf "metrics written to %s\n" mpath
  | None -> ());
  print_newline ()

let run (cfg : Config.t) =
  let seeds = [ cfg.Config.seed; cfg.Config.seed + 1; cfg.Config.seed + 2 ] in
  run_params { default_params with seeds }
