module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Check = Mis_graph.Check
module Kernel = Mis_sim.Kernel
module Trace = Mis_obs.Trace
module Metrics = Mis_obs.Metrics
module Prof = Mis_obs.Prof
module Splitmix = Mis_util.Splitmix
module Rand_plan = Fairmis.Rand_plan

let spf = Printf.sprintf

type outcome = { output : bool array; decided : bool array; rounds : int }

type algorithm = {
  alg_run : Mis_graph.View.t -> ids:int array -> seed:int -> outcome;
}

(* Luby on the kernel, with the (seed, global id)-keyed coins of
   [Rand_plan.Stage.luby_main]. *)
let luby =
  { alg_run =
      (fun view ~ids ~seed ->
        let o =
          Kernel.luby
            ~value_of:
              (Rand_plan.node_values (Rand_plan.make seed)
                 ~stage:Rand_plan.Stage.luby_main)
            (Kernel.create ~ids view)
        in
        { output = o.Kernel.output; decided = o.Kernel.decided;
          rounds = o.Kernel.rounds }) }

type rung = Radius of int | Full_recompute

type config = {
  algorithm : algorithm;
  ladder : rung list;
  strict : bool;
  check_every : int;
  timeout : float option;
  backoff : int -> float;
  sleep : float -> unit;
  clock : unit -> float;
  seed : int;
  metrics : Mis_obs.Metrics.t option;
  decisions : Mis_obs.Trace.sink;
}

let default_config =
  { algorithm = luby;
    ladder = [ Radius 1; Radius 2; Full_recompute ];
    strict = false;
    check_every = 0;
    timeout = None;
    backoff = (fun _ -> 0.);
    sleep = (fun s -> if s > 0. then Unix.sleepf s);
    clock = Unix.gettimeofday;
    seed = 1;
    metrics = None;
    decisions = Mis_obs.Trace.null }

(* [mark], [slot] and [order] are the repair scratch, one int per slot,
   reused by every attempt: a slot is dirty in the current attempt when
   its [mark] equals [epoch], so starting an attempt is one increment.
   [order] lists the dirty slots in marking order (the BFS queue and the
   closure worklist); [slot] holds a dirty slot's region index, or -1
   when it is covered by a frozen member. [seeded] stamps each slot with
   the last batch that seeded it. *)
type t = {
  cfg : config;
  g : Dyn_graph.t;
  mem : bool array;  (* current membership; false on dead slots *)
  mutable batches : int;
  event_counters : Metrics.counter option array;
      (* dyn.events.<kind>, by constructor, resolved on the kind's first
         event so the metrics list only the kinds seen *)
  mark : int array;
  slot : int array;
  order : int array;
  seeded : int array;
  mutable epoch : int;
}

exception Invariant_violation of string

let validate_config cfg =
  if cfg.ladder = [] then invalid_arg "Maintain.create: empty ladder";
  List.iter
    (function
      | Radius r when r < 1 ->
        invalid_arg "Maintain.create: ladder radius must be >= 1"
      | Radius _ | Full_recompute -> ())
    cfg.ladder;
  if cfg.check_every < 0 then
    invalid_arg "Maintain.create: check_every must be >= 0";
  match cfg.timeout with
  | Some s when not (s > 0.) ->
    invalid_arg "Maintain.create: timeout must be > 0"
  | _ -> ()

let create ?(config = default_config) ~capacity () =
  validate_config config;
  let g = Dyn_graph.create ~capacity in
  { cfg = config;
    g;
    mem = Array.make capacity false;
    batches = 0;
    event_counters = Array.make 5 None;
    mark = Array.make capacity 0;
    slot = Array.make capacity 0;
    order = Array.make capacity 0;
    seeded = Array.make capacity 0;
    epoch = 0 }

let config t = t.cfg
let graph t = t.g
let mis t = Array.copy t.mem

type report = {
  batch : int;
  events : int;
  applied : int;
  skipped : int;
  dirty : int;
  region_nodes : int array;
  rounds : int;
  attempts : int;
  escalated : bool;
  full_recompute : bool;
  repair_seconds : float;
  flips : int;
  live : int;
}

(* --- metrics helpers ---------------------------------------------------- *)

let mcount t name by =
  match t.cfg.metrics with
  | None -> ()
  | Some reg -> Metrics.incr ~by (Metrics.counter reg name)

let mobserve t name v =
  match t.cfg.metrics with
  | None -> ()
  | Some reg -> Metrics.observe_int (Metrics.histogram reg name) v

let mgauge t name v =
  match t.cfg.metrics with
  | None -> ()
  | Some reg -> Metrics.set (Metrics.gauge reg name) v

let count_event t ev =
  match t.cfg.metrics with
  | None -> ()
  | Some reg ->
    let k =
      match ev with
      | Event.Node_join _ -> 0
      | Event.Node_leave _ -> 1
      | Event.Edge_insert _ -> 2
      | Event.Edge_delete _ -> 3
      | Event.Node_crash _ -> 4
    in
    (match t.event_counters.(k) with
    | Some c -> Metrics.incr c
    | None ->
      let c = Metrics.counter reg ("dyn.events." ^ Event.kind ev) in
      t.event_counters.(k) <- Some c;
      Metrics.incr c)

(* --- event application -------------------------------------------------- *)

(* Apply one event; accumulate dirty seeds (alive nodes whose validity may
   have broken) and return (applied, skipped) deltas. The seeding rules
   are the minimal sound ones:
   - an inserted edge breaks independence only when both endpoints are
     members;
   - a deleted member/non-member edge may un-cover the non-member end;
   - a joined node is undecided (the region-exclusion step covers it for
     free when a frozen member neighbors it);
   - a departed or crashed member may have been the only cover of each of
     its neighbors. *)
let apply_event t ~seed_node ev =
  let g = t.g in
  let cap = Dyn_graph.capacity g in
  let in_range u = u >= 0 && u < cap in
  match ev with
  | Event.Node_join { node; edges } ->
    if (not (in_range node)) || not (Dyn_graph.join g node) then (0, 1)
    else begin
      t.mem.(node) <- false;
      seed_node node;
      (* Dead or out-of-range endpoints are skipped and counted, the join
         itself still applies. *)
      let skipped = ref 0 in
      List.iter
        (fun v ->
          if in_range v && Dyn_graph.insert_edge g node v then begin
            (* [node] is not a member yet, so the member-member insert
               rule cannot fire; the join seed already covers it. *)
            ()
          end
          else incr skipped)
        edges;
      (1, !skipped)
    end
  | Event.Node_leave { node } ->
    if not (in_range node) then (0, 1)
    else begin
      let was_member = t.mem.(node) in
      let former = if was_member then Dyn_graph.adj_alive_sorted g node else [||] in
      if not (Dyn_graph.leave g node) then (0, 1)
      else begin
        t.mem.(node) <- false;
        Array.iter seed_node former;
        (1, 0)
      end
    end
  | Event.Node_crash { node } ->
    if not (in_range node) then (0, 1)
    else begin
      let was_member = t.mem.(node) in
      let former = if was_member then Dyn_graph.adj_alive_sorted g node else [||] in
      if not (Dyn_graph.crash g node) then (0, 1)
      else begin
        t.mem.(node) <- false;
        Array.iter seed_node former;
        (1, 0)
      end
    end
  | Event.Edge_insert { u; v } ->
    if (not (in_range u)) || (not (in_range v))
       || not (Dyn_graph.insert_edge g u v)
    then (0, 1)
    else begin
      if t.mem.(u) && t.mem.(v) then begin
        seed_node u;
        seed_node v
      end;
      (1, 0)
    end
  | Event.Edge_delete { u; v } ->
    if (not (in_range u)) || (not (in_range v))
       || not (Dyn_graph.delete_edge g u v)
    then (0, 1)
    else begin
      (if t.mem.(u) && not t.mem.(v) then seed_node v
       else if t.mem.(v) && not t.mem.(u) then seed_node u
       else if t.mem.(u) && t.mem.(v) then begin
         (* Only reachable from an already-broken state; repair both. *)
         seed_node u;
         seed_node v
       end);
      (1, 0)
    end

(* --- repair ------------------------------------------------------------- *)

type attempt_result = {
  a_dirty : int;
  a_region : int array;  (* sorted global numbers handed to the program *)
  a_rounds : int;
  a_changes : (int * bool) list;  (* proposed membership of dirty nodes *)
}

(* Dirty closure at [radius]: BFS-widen the seeds by [radius - 1] hops,
   then close under "alive neighbors of dirty members are dirty" (those
   neighbors may lose their cover when the member is re-decided). Opens a
   new epoch and returns how many slots it marked, listed in
   [t.order]. *)
let dirty_set t ~seeds ~radius =
  let g = t.g and mark = t.mark and order = t.order in
  t.epoch <- t.epoch + 1;
  let e = t.epoch in
  let len = ref 0 in
  let add v =
    if mark.(v) <> e then begin
      mark.(v) <- e;
      order.(!len) <- v;
      incr len
    end
  in
  List.iter (fun u -> if Dyn_graph.alive g u then add u) seeds;
  let layer = ref 0 in
  for _ = 2 to radius do
    let stop = !len in
    for i = !layer to stop - 1 do
      Dyn_graph.iter_adj_alive g order.(i) add
    done;
    layer := stop
  done;
  (* Member closure: [order] doubles as the worklist, since widening can
     pull in members whose dependents must follow. *)
  let i = ref 0 in
  while !i < !len do
    let u = order.(!i) in
    if t.mem.(u) then Dyn_graph.iter_adj_alive g u add;
    incr i
  done;
  !len

let attempt_seed t ~batch ~attempt =
  Int64.to_int
    (Splitmix.derive (Int64.of_int t.cfg.seed) [ 0xD71A; batch; attempt ])
  land max_int

(* One repair attempt. Returns the proposed membership changes without
   committing them, so a timed-out or incomplete attempt leaves the
   maintained state untouched for the next rung. *)
let run_attempt t ~batch ~attempt ~seeds rung =
  let g = t.g in
  let seed = attempt_seed t ~batch ~attempt in
  match rung with
  | Full_recompute ->
    let ids = Array.init (Dyn_graph.capacity g) Fun.id in
    let o =
      t.cfg.algorithm.alg_run (Dyn_graph.live_view g) ~ids ~seed
    in
    let alive = Dyn_graph.alive_nodes g in
    if not (Array.for_all (fun u -> o.decided.(u)) alive) then None
    else
      Some
        { a_dirty = Array.length alive;
          a_region = alive;
          a_rounds = o.rounds;
          a_changes =
            Array.to_list (Array.map (fun u -> (u, o.output.(u))) alive) }
  | Radius radius ->
    let dirty = Array.sub t.order 0 (dirty_set t ~seeds ~radius) in
    Array.sort Int.compare dirty;
    let e = t.epoch and mark = t.mark and slot = t.slot in
    (* Frozen-member exclusion: a dirty node adjacent to a member outside
       the dirty set is covered by it and must stay out of the set. The
       rest get region indices in ascending node order. *)
    let k = ref 0 in
    Array.iter
      (fun u ->
        let covered = ref false in
        Dyn_graph.iter_adj_alive g u (fun v ->
            if t.mem.(v) && mark.(v) <> e then covered := true);
        if !covered then slot.(u) <- -1
        else begin
          slot.(u) <- !k;
          incr k
        end)
      dirty;
    let region = Array.make !k 0 in
    Array.iter (fun u -> if slot.(u) >= 0 then region.(slot.(u)) <- u) dirty;
    let covered =
      Array.fold_right
        (fun u acc -> if slot.(u) < 0 then (u, false) :: acc else acc)
        dirty []
    in
    if !k = 0 then
      Some
        { a_dirty = Array.length dirty;
          a_region = [||];
          a_rounds = 0;
          a_changes = covered }
    else begin
      (* The induced edges: counted, then written back to front. *)
      let inner u v = u < v && mark.(v) = e && slot.(v) >= 0 in
      let m = ref 0 in
      Array.iter
        (fun u ->
          Dyn_graph.iter_adj_alive g u (fun v -> if inner u v then incr m))
        region;
      let edges = Array.make !m (0, 0) in
      Array.iteri
        (fun i u ->
          Dyn_graph.iter_adj_alive g u (fun v ->
              if inner u v then begin
                decr m;
                edges.(!m) <- (i, slot.(v))
              end))
        region;
      let sub = Graph.of_edge_array ~n:!k edges in
      let o =
        t.cfg.algorithm.alg_run (View.full sub) ~ids:region ~seed
      in
      if not (Array.for_all Fun.id o.decided) then None
      else
        Some
          { a_dirty = Array.length dirty;
            a_region = region;
            a_rounds = o.rounds;
            a_changes =
              covered
              @ Array.to_list
                  (Array.mapi (fun i u -> (u, o.output.(i))) region) }
    end

let emit_decisions t ~batch changes =
  let sink = t.cfg.decisions in
  if not (Trace.is_null sink) then begin
    List.iter
      (fun (u, m) ->
        sink.Trace.emit (Trace.Decide { round = batch; node = u; in_mis = m }))
      changes;
    sink.Trace.flush ()
  end

let check t =
  match Dyn_graph.classify t.g t.mem with
  | Check.Mis -> Ok ()
  | Check.Not_independent | Check.Not_maximal ->
    Error
      (spf
         "batch %d: maintained set is not an MIS of the surviving view \
          (%d live nodes)"
         t.batches
         (Dyn_graph.alive_count t.g))

(* Climb the ladder; each rung gets a fresh attempt against the
   un-committed pre-repair state. *)
let repair t ~batch ~seeds =
  let rec go attempt total = function
    | [] ->
      raise
        (Invariant_violation
           (spf "batch %d: every repair rung failed (%d attempts)" batch
              (attempt - 1)))
    | rung :: rest ->
      if attempt > 1 then begin
        mcount t "dyn.repair.escalations" 1;
        t.cfg.sleep (t.cfg.backoff attempt)
      end;
      mcount t "dyn.repair.attempts" 1;
      let t0 = t.cfg.clock () in
      let result =
        Prof.gspan "dyn.repair.attempt" (fun () ->
            run_attempt t ~batch ~attempt ~seeds rung)
      in
      let elapsed = max 0. (t.cfg.clock () -. t0) in
      let total = total +. elapsed in
      let timed_out =
        match t.cfg.timeout with Some b -> elapsed > b | None -> false
      in
      (match result with
      | Some r when not timed_out -> (r, attempt, rung, total)
      | Some _ ->
        mcount t "dyn.repair.timeouts" 1;
        go (attempt + 1) total rest
      | None ->
        mcount t "dyn.repair.incomplete" 1;
        go (attempt + 1) total rest)
  in
  go 1 0. t.cfg.ladder

let apply_batch t events =
  Prof.gspan "dyn.batch" (fun () ->
      t.batches <- t.batches + 1;
      let batch = t.batches in
      mcount t "dyn.batches" 1;
      let seeds = ref [] in
      let seed_node u =
        if t.seeded.(u) <> batch then begin
          t.seeded.(u) <- batch;
          seeds := u :: !seeds
        end
      in
      let applied = ref 0 and skipped = ref 0 in
      List.iter
        (fun ev ->
          let a, s = apply_event t ~seed_node ev in
          count_event t ev;
          applied := !applied + a;
          skipped := !skipped + s)
        events;
      mcount t "dyn.events.skipped" !skipped;
      (* Seeds list in first-marked order; keep deterministic. *)
      let seeds = List.rev !seeds in
      let result, attempts, rung, elapsed = repair t ~batch ~seeds in
      (* Commit. *)
      let flips = ref 0 in
      List.iter
        (fun (u, m) ->
          if t.mem.(u) <> m then incr flips;
          t.mem.(u) <- m)
        result.a_changes;
      emit_decisions t ~batch result.a_changes;
      let full = rung = Full_recompute in
      if full then mcount t "dyn.repair.full_recomputes" 1;
      mcount t "dyn.flips" !flips;
      mobserve t "dyn.repair.dirty_nodes" result.a_dirty;
      mobserve t "dyn.repair.region_nodes" (Array.length result.a_region);
      (match t.cfg.metrics with
      | None -> ()
      | Some reg ->
        Metrics.timer_add
          (Metrics.timer reg "dyn.repair.seconds")
          ~seconds:elapsed ~calls:1);
      (* Invariant checker: hard-fail fast in strict mode, self-heal (and
         count) otherwise. *)
      let checked =
        t.cfg.check_every > 0 && batch mod t.cfg.check_every = 0
      in
      let healed = ref false in
      if checked then begin
        match check t with
        | Ok () -> ()
        | Error msg ->
          mcount t "dyn.invariant_violations" 1;
          if t.cfg.strict then raise (Invariant_violation msg);
          (* Graceful degradation: force the floor of the ladder. *)
          healed := true;
          (match
             run_attempt t ~batch ~attempt:(attempts + 1) ~seeds Full_recompute
           with
          | Some r ->
            List.iter (fun (u, m) -> t.mem.(u) <- m) r.a_changes;
            emit_decisions t ~batch r.a_changes
          | None -> raise (Invariant_violation msg));
          (match check t with
          | Ok () -> ()
          | Error msg -> raise (Invariant_violation msg))
      end;
      if t.cfg.metrics <> None then begin
        (* Degradation-ladder position of the accepted repair: rung index
           0 while healthy, the ladder floor after a self-heal. *)
        let level =
          if !healed then List.length t.cfg.ladder - 1 else attempts - 1
        in
        mgauge t "dyn.ladder.level" (float_of_int level);
        mgauge t "dyn.live_nodes"
          (float_of_int (Dyn_graph.alive_count t.g));
        let members = ref 0 in
        Array.iteri
          (fun u m -> if m && Dyn_graph.alive t.g u then incr members)
          t.mem;
        mgauge t "dyn.mis_members" (float_of_int !members)
      end;
      { batch;
        events = List.length events;
        applied = !applied;
        skipped = !skipped;
        dirty = result.a_dirty;
        region_nodes = result.a_region;
        rounds = result.a_rounds;
        attempts;
        escalated = attempts > 1 || !healed;
        full_recompute = full || !healed;
        repair_seconds = elapsed;
        flips = !flips;
        live = Dyn_graph.alive_count t.g })
