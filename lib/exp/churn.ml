module Splitmix = Mis_util.Splitmix
module Maintain = Mis_dyn.Maintain
module Dyn_graph = Mis_dyn.Dyn_graph
module Churn_gen = Mis_workload.Churn
module Metrics = Mis_obs.Metrics
module Fairness = Mis_obs.Fairness
module Empirical = Mis_stats.Empirical

(* Exact offline nearest-rank percentile; [nan] on an empty sample set
   (mirrors [factor_max] below). *)
let pct xs q =
  Option.value ~default:Float.nan (Mis_obs.Sketch.nearest_rank xs q)

(* Batches per fairness window. *)
let window = 20

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

(* One served stream as a table row. [reg] is shared across the seeds,
   so [viol] is the running total of the checker's violations. *)
let row reg (p : Churn_gen.params) ~seed =
  let stream = Churn_gen.generate (Splitmix.of_seed seed) p in
  let cfg =
    { Maintain.default_config with
      seed; check_every = 1; metrics = Some reg }
  in
  let m = Maintain.create ~config:cfg ~capacity:p.Churn_gen.capacity () in
  let g = Maintain.graph m in
  let capacity = p.Churn_gen.capacity in
  let events = ref 0 and applied = ref 0 in
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
  let factors = ref [] in
  let close_window () =
    if !win_len > 0 then begin
      (match window_factor !fair ~stable with
      | Some f when Float.is_finite f -> factors := f :: !factors
      | _ -> ());
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
      if !win_len = window then close_window ())
    stream;
  close_window ();
  let ms = Array.of_list (List.rev_map (fun s -> 1000. *. s) !seconds) in
  let per sum = float_of_int sum /. float_of_int (max 1 !batches) in
  let violations =
    Metrics.counter_value (Metrics.counter reg "dyn.invariant_violations")
  in
  [ string_of_int seed;
    string_of_int !batches;
    string_of_int !events;
    string_of_int !applied;
    Printf.sprintf "%.0f" (per !live_sum);
    Printf.sprintf "%.1f" (per !region_sum);
    string_of_int !region_max;
    Printf.sprintf "%.2f" (pct ms 0.50);
    Printf.sprintf "%.2f" (pct ms 0.95);
    Printf.sprintf "%.2f" (pct ms 0.99);
    string_of_int !escalations;
    string_of_int !fulls;
    string_of_int !flips;
    string_of_int violations;
    Table.float_cell (median !factors);
    string_of_int (Array.fold_left ( + ) 0 evict);
    Table.float_cell (count_factor evict ~ever_alive);
    Table.float_cell (count_factor redecide ~ever_alive) ]

let header =
  [ "seed"; "batches"; "events"; "applied"; "live"; "region"; "max rg";
    "p50ms"; "p95ms"; "p99ms"; "esc"; "full"; "flips"; "viol"; "factor";
    "evict"; "evfac"; "rdfac" ]

let run (cfg : Config.t) =
  let p = { Churn_gen.default with batches = 120 } in
  Printf.printf
    "== churn: dynamic MIS under heavy-tailed churn (capacity=%d, \
     initial=%d, batches=%d, window=%d, Pareto alpha=%g)\n"
    p.Churn_gen.capacity p.Churn_gen.initial p.Churn_gen.batches window
    p.Churn_gen.lifetime_alpha;
  let reg = Metrics.create () in
  let seeds = [ cfg.Config.seed; cfg.Config.seed + 1; cfg.Config.seed + 2 ] in
  Table.print ~header (List.map (fun seed -> row reg p ~seed) seeds);
  print_newline ()
