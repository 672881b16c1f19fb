module Check = Mis_graph.Check
module Kernel = Mis_sim.Kernel
module Trace = Mis_obs.Trace
module Metrics = Mis_obs.Metrics
module Prof = Mis_obs.Prof
module Splitmix = Mis_util.Splitmix
module Rand_plan = Fairmis.Rand_plan

let spf = Printf.sprintf

type rung = Radius of int | Full_recompute

type config = {
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
  { ladder = [ Radius 1; Radius 2; Full_recompute ];
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
   closure worklist); [slot] holds a region slot's index, or -1 when a
   frozen member covers it. [seeded] stamps each slot with the last batch
   that seeded it, and [seeds] lists the batch's first [nseeds] seeds.
   [off] and [adj] are the region's CSR over region indices, handed to
   the kernel in place; [adj] grows to the largest region's links. *)
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
  seeds : int array;
  mutable nseeds : int;
  off : int array;
  mutable adj : int array;
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
    seeds = Array.make capacity 0;
    nseeds = 0;
    off = Array.make (capacity + 1) 0;
    adj = Array.make (4 * capacity) 0;
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

(* A seed is an alive node whose validity the batch may have broken;
   each slot is listed at most once per batch. *)
let seed_node t u =
  if t.seeded.(u) <> t.batches then begin
    t.seeded.(u) <- t.batches;
    t.seeds.(t.nseeds) <- u;
    t.nseeds <- t.nseeds + 1
  end

(* Apply one event; accumulate dirty seeds and return (applied, skipped)
   deltas. The seeding rules are the minimal sound ones:
   - an inserted edge breaks independence only when both endpoints are
     members;
   - a deleted member/non-member edge may un-cover the non-member end;
   - a joined node is undecided (the region-exclusion step covers it for
     free when a frozen member neighbors it);
   - a departed or crashed member may have been the only cover of each of
     its neighbors. *)
let apply_event t ev =
  let g = t.g in
  let cap = Dyn_graph.capacity g in
  let in_range u = u >= 0 && u < cap in
  match ev with
  | Event.Node_join { node; edges } ->
    if (not (in_range node)) || not (Dyn_graph.join g node) then (0, 1)
    else begin
      t.mem.(node) <- false;
      seed_node t node;
      (* Dead or out-of-range endpoints are skipped and counted, the join
         itself still applies. [node] is not a member yet, so the
         member-member insert rule cannot fire; the join seed covers it. *)
      let skipped = ref 0 in
      List.iter
        (fun v ->
          if not (in_range v && Dyn_graph.insert_edge g node v) then
            incr skipped)
        edges;
      (1, !skipped)
    end
  | Event.Node_leave { node } | Event.Node_crash { node } ->
    if not (in_range node) then (0, 1)
    else begin
      (* A member is alive, so the leave or crash below applies; its
         neighbours are read before a leave drops them. *)
      if t.mem.(node) then begin
        for i = 0 to Dyn_graph.deg g node - 1 do
          let v = Dyn_graph.nbr g node i in
          if Dyn_graph.alive g v then seed_node t v
        done
      end;
      let applied =
        match ev with
        | Event.Node_leave _ -> Dyn_graph.leave g node
        | _ -> Dyn_graph.crash g node
      in
      if not applied then (0, 1)
      else begin
        t.mem.(node) <- false;
        (1, 0)
      end
    end
  | Event.Edge_insert { u; v } ->
    if (not (in_range u)) || (not (in_range v))
       || not (Dyn_graph.insert_edge g u v)
    then (0, 1)
    else begin
      if t.mem.(u) && t.mem.(v) then begin
        seed_node t u;
        seed_node t v
      end;
      (1, 0)
    end
  | Event.Edge_delete { u; v } ->
    if (not (in_range u)) || (not (in_range v))
       || not (Dyn_graph.delete_edge g u v)
    then (0, 1)
    else begin
      (* Seed each end whose other end is a member: that member may
         have been its only cover. Both ends are members only in an
         already-broken state, and then both are repaired. *)
      if t.mem.(v) then seed_node t u;
      if t.mem.(u) then seed_node t v;
      (1, 0)
    end

(* --- repair ------------------------------------------------------------- *)

(* An accepted attempt's proposal, committed only once the attempt is
   accepted: the dirty nodes a frozen member covers leave the set, and
   each region node takes the kernel's verdict. *)
type attempt_result = {
  a_covered : int array;  (* sorted *)
  a_region : int array;  (* sorted global numbers handed to the kernel *)
  a_output : bool array;  (* by region index *)
  a_rounds : int;
}

(* Mark [v] dirty and append it to [order] at [len], unless it is dead
   or already marked in epoch [e]; returns the new length. *)
let[@inline] push t e len v =
  if Dyn_graph.alive t.g v && t.mark.(v) <> e then begin
    t.mark.(v) <- e;
    t.order.(len) <- v;
    len + 1
  end
  else len

let push_neighbours t e len u =
  let len = ref len in
  for i = 0 to Dyn_graph.deg t.g u - 1 do
    len := push t e !len (Dyn_graph.nbr t.g u i)
  done;
  !len

(* Dirty closure at [radius]: BFS-widen the seeds by [radius - 1] hops,
   then close under "alive neighbors of dirty members are dirty" (those
   neighbors may lose their cover when the member is re-decided). Opens a
   new epoch and returns how many slots it marked, listed in
   [t.order]. *)
let dirty_set t ~radius =
  t.epoch <- t.epoch + 1;
  let e = t.epoch and len = ref 0 in
  for i = 0 to t.nseeds - 1 do
    len := push t e !len t.seeds.(i)
  done;
  let layer = ref 0 in
  for _ = 2 to radius do
    let stop = !len in
    for i = !layer to stop - 1 do
      len := push_neighbours t e !len t.order.(i)
    done;
    layer := stop
  done;
  (* Member closure: [order] doubles as the worklist, since widening can
     pull in members whose dependents must follow. *)
  let i = ref 0 in
  while !i < !len do
    let u = t.order.(!i) in
    if t.mem.(u) then len := push_neighbours t e !len u;
    incr i
  done;
  !len

(* Whether a member outside the dirty set neighbours [u] ([mem] is
   false on dead slots). *)
let frozen_cover t e u =
  let g = t.g in
  let stop = Dyn_graph.deg g u in
  let hit = ref false and i = ref 0 in
  while (not !hit) && !i < stop do
    let v = Dyn_graph.nbr g u !i in
    if t.mem.(v) && t.mark.(v) <> e then hit := true;
    incr i
  done;
  !hit

(* In-place heap sort of [a.(0 .. len-1)]: ints compared inline, where
   the stdlib's sorts call a closure and read the array polymorphically
   (a 110-node dirty set took 14 us that way, more than its repair). *)
let rec sift (a : int array) i stop =
  let l = (2 * i) + 1 in
  let c = if l + 1 < stop && a.(l + 1) > a.(l) then l + 1 else l in
  if c < stop && a.(c) > a.(i) then begin
    let x = a.(i) in
    a.(i) <- a.(c);
    a.(c) <- x;
    sift a c stop
  end

let sort_prefix a len =
  for i = (len / 2) - 1 downto 0 do
    sift a i len
  done;
  for stop = len - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(stop);
    a.(stop) <- x;
    sift a 0 stop
  done

let attempt_seed t ~batch ~attempt =
  Int64.to_int
    (Splitmix.derive (Int64.of_int t.cfg.seed) [ 0xD71A; batch; attempt ])
  land max_int

(* One repair attempt: list the rung's candidates in ascending order in
   [t.order], drop those a frozen member covers, write the rest's CSR
   into [t.off] / [t.adj], and run Luby on the kernel with the (seed,
   global id)-keyed [luby_main] coins. Returns the proposal without
   committing it, so a timed-out or incomplete attempt leaves the
   maintained state untouched for the next rung. *)
let run_attempt t ~batch ~attempt rung =
  let g = t.g and order = t.order and mark = t.mark and slot = t.slot in
  let cap = Dyn_graph.capacity g in
  let len, exclude =
    match rung with
    | Full_recompute ->
      (* Every alive node, in slot order; no member lies outside the set
         to cover one. *)
      t.epoch <- t.epoch + 1;
      let len = ref 0 in
      for u = 0 to cap - 1 do
        len := push t t.epoch !len u
      done;
      (!len, false)
    | Radius radius ->
      let len = dirty_set t ~radius in
      sort_prefix order len;
      (len, true)
  in
  let e = t.epoch in
  (* Frozen-member exclusion: a dirty node adjacent to a member outside
     the dirty set is covered by it and must stay out of the set. The
     rest get region indices in ascending node order. *)
  let k = ref 0 and need = ref 0 in
  for i = 0 to len - 1 do
    let u = order.(i) in
    if exclude && frozen_cover t e u then slot.(u) <- -1
    else begin
      slot.(u) <- !k;
      incr k;
      need := !need + Dyn_graph.deg g u
    end
  done;
  if Array.length t.adj < !need then
    t.adj <- Array.make (max !need (2 * Array.length t.adj)) 0;
  let region = Array.make !k 0 and covered = Array.make (len - !k) 0 in
  let adj = t.adj and s = ref 0 and c = ref 0 and fill = ref 0 in
  for i = 0 to len - 1 do
    let u = order.(i) in
    if slot.(u) < 0 then begin
      covered.(!c) <- u;
      incr c
    end
    else begin
      region.(!s) <- u;
      for j = 0 to Dyn_graph.deg g u - 1 do
        let v = Dyn_graph.nbr g u j in
        if mark.(v) = e && slot.(v) >= 0 then begin
          adj.(!fill) <- slot.(v);
          incr fill
        end
      done;
      incr s;
      t.off.(!s) <- !fill
    end
  done;
  let accept output rounds =
    Some
      { a_covered = covered; a_region = region;
        a_output = output; a_rounds = rounds }
  in
  if !k = 0 then accept [||] 0
  else begin
    let o =
      Kernel.luby
        ?max_rounds:
          (match rung with
          | Full_recompute ->
            (* The budget of a run over the whole universe of slots. *)
            Some (Kernel.luby_max_rounds cap)
          | Radius _ -> None)
        ~value_of:
          (Rand_plan.node_values
             (Rand_plan.make (attempt_seed t ~batch ~attempt))
             ~stage:Rand_plan.Stage.luby_main)
        (Kernel.of_slots ~ids:region ~off:t.off ~adj)
    in
    if Array.for_all Fun.id o.Kernel.decided then
      accept o.Kernel.output o.Kernel.rounds
    else None
  end

(* Commit an accepted proposal and emit its decisions; returns how many
   memberships changed. *)
let commit t ~batch r =
  let sink = t.cfg.decisions in
  let flips = ref 0 in
  let set u m =
    if t.mem.(u) <> m then incr flips;
    t.mem.(u) <- m;
    if not (Trace.is_null sink) then
      sink.Trace.emit (Trace.Decide { round = batch; node = u; in_mis = m })
  in
  Array.iter (fun u -> set u false) r.a_covered;
  Array.iteri (fun i u -> set u r.a_output.(i)) r.a_region;
  if not (Trace.is_null sink) then sink.Trace.flush ();
  !flips

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
let repair t ~batch =
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
            run_attempt t ~batch ~attempt rung)
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
      t.nseeds <- 0;
      let applied = ref 0 and skipped = ref 0 in
      List.iter
        (fun ev ->
          let a, s = apply_event t ev in
          count_event t ev;
          applied := !applied + a;
          skipped := !skipped + s)
        events;
      mcount t "dyn.events.skipped" !skipped;
      let result, attempts, rung, elapsed = repair t ~batch in
      let flips = commit t ~batch result in
      let full = rung = Full_recompute in
      if full then mcount t "dyn.repair.full_recomputes" 1;
      mcount t "dyn.flips" flips;
      let dirty = Array.length result.a_covered + Array.length result.a_region in
      mobserve t "dyn.repair.dirty_nodes" dirty;
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
          (match run_attempt t ~batch ~attempt:(attempts + 1) Full_recompute with
          | Some r -> ignore (commit t ~batch r)
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
        mgauge t "dyn.mis_members"
          (float_of_int (Array.fold_left (fun a m -> if m then a + 1 else a) 0 t.mem))
      end;
      { batch;
        events = List.length events;
        applied = !applied;
        skipped = !skipped;
        dirty;
        region_nodes = result.a_region;
        rounds = result.a_rounds;
        attempts;
        escalated = attempts > 1 || !healed;
        full_recompute = full || !healed;
        repair_seconds = elapsed;
        flips;
        live = Dyn_graph.alive_count t.g })
