module Check = Mis_graph.Check
module Kernel = Mis_sim.Kernel
module Trace = Mis_obs.Trace
module Metrics = Mis_obs.Metrics
module Prof = Mis_obs.Prof
module Splitmix = Mis_util.Splitmix
module Rand_plan = Fairmis.Rand_plan

let spf = Printf.sprintf

type config = {
  incremental : bool;
  strict : bool;
  check_every : int;
  clock : unit -> float;
  seed : int;
  metrics : Mis_obs.Metrics.t option;
  decisions : Mis_obs.Trace.sink;
}

let default_config =
  { incremental = true;
    strict = false;
    check_every = 0;
    clock = Unix.gettimeofday;
    seed = 1;
    metrics = None;
    decisions = Mis_obs.Trace.null }

(* [mark], [slot] and [order] are the repair scratch, one int per slot,
   reused by every repair: a slot is dirty in the current repair when
   its [mark] equals [epoch], so starting a repair is one increment.
   [order] lists the dirty slots in marking order (the closure
   worklist); [slot] holds a region slot's index, or -1 when a
   frozen member covers it. [seeded] stamps each slot with the last batch
   that seeded it, and [seeds] lists the batch's first [nseeds] seeds.
   [off] and [adj] are the region's CSR over region indices, handed to
   the kernel in place; [adj] starts empty and grows to the largest
   region's links. [kernel] is the one Luby kernel every repair reloads
   with its region, so its scratch is allocated again only when a region
   outgrows every earlier one; [out] is the outcome each repair writes,
   grown to the largest region. Both are the maintainer's alone. *)
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
  kernel : Kernel.t;
  mutable out : Kernel.outcome;
}

exception Invariant_violation of string

let validate_config cfg =
  if cfg.check_every < 0 then
    invalid_arg "Maintain.create: check_every must be >= 0"

let create ?(config = default_config) ~capacity () =
  validate_config config;
  let g = Dyn_graph.create ~capacity in
  let off = Array.make (capacity + 1) 0 in
  let kernel = Kernel.of_slots ~ids:[||] ~off ~adj:[||] in
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
    off;
    adj = [||];
    epoch = 0;
    kernel;
    out = Kernel.make_outcome kernel }

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

(* A repair's verdict, committed once the repair's time is taken: the
   dirty nodes a frozen member covers leave the set, and each region
   node takes the kernel's verdict. *)
type verdict = {
  covered : int array;  (* sorted *)
  region : int array;  (* sorted global numbers handed to the kernel *)
  output : bool array;  (* by region index; [t.out]'s, so read it before
                           the next repair *)
  rounds : int;
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

(* Dirty closure: the seeds, closed under "alive neighbors of dirty
   members are dirty" (those neighbors may lose their cover when the
   member is re-decided). Opens a new epoch and returns how many slots it
   marked, listed in [t.order], which doubles as the closure's
   worklist. *)
let dirty_set t =
  t.epoch <- t.epoch + 1;
  let e = t.epoch and len = ref 0 in
  for i = 0 to t.nseeds - 1 do
    len := push t e !len t.seeds.(i)
  done;
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

(* Coins of a batch's repair ([attempt = 1]) or of the full recompute
   that heals a failed check ([attempt = 2]). *)
let attempt_seed t ~batch ~attempt =
  Int64.to_int
    (Splitmix.derive (Int64.of_int t.cfg.seed) [ 0xD71A; batch; attempt ])
  land max_int

(* One repair: list the candidates in ascending order in [t.order] (the
   dirty set, or every alive node when [full]), drop those a frozen
   member covers, write the rest's CSR into [t.off] / [t.adj], reload
   the resident kernel with it and run Luby there, into [t.out], with
   the (seed, global id)-keyed [luby_main] coins until every region node
   is decided. Each phase decides at least the frontier's (value, id)
   minimum, so a k-node region takes at most 3k rounds and needs no
   budget. Returns the verdict without committing it. *)
let repair t ~batch ~attempt ~full =
  let g = t.g and order = t.order and mark = t.mark and slot = t.slot in
  let len =
    if full then begin
      (* Every alive node, in slot order; no member lies outside the set
         to cover one. *)
      t.epoch <- t.epoch + 1;
      let len = ref 0 in
      for u = 0 to Dyn_graph.capacity g - 1 do
        len := push t t.epoch !len u
      done;
      !len
    end
    else begin
      let len = dirty_set t in
      sort_prefix order len;
      len
    end
  in
  let e = t.epoch in
  (* Frozen-member exclusion: a dirty node adjacent to a member outside
     the dirty set is covered by it and must stay out of the set. The
     rest get region indices in ascending node order. *)
  let k = ref 0 and need = ref 0 in
  for i = 0 to len - 1 do
    let u = order.(i) in
    if (not full) && frozen_cover t e u then slot.(u) <- -1
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
  if !k = 0 then { covered; region; output = [||]; rounds = 0 }
  else begin
    Kernel.reload t.kernel ~ids:region ~off:t.off ~adj;
    if Array.length t.out.Kernel.output < !k then
      t.out <- Kernel.make_outcome t.kernel;
    let o =
      Kernel.luby ~max_rounds:max_int ~into:t.out
        ~value_of:
          (Rand_plan.node_values
             (Rand_plan.make (attempt_seed t ~batch ~attempt))
             ~stage:Rand_plan.Stage.luby_main)
        t.kernel
    in
    { covered; region; output = o.Kernel.output; rounds = o.Kernel.rounds }
  end

(* Commit a repair and emit its decisions; returns how many memberships
   changed. *)
let commit t ~batch r =
  let sink = t.cfg.decisions in
  let flips = ref 0 in
  let set u m =
    if t.mem.(u) <> m then incr flips;
    t.mem.(u) <- m;
    if not (Trace.is_null sink) then
      sink.Trace.emit (Trace.Decide { round = batch; node = u; in_mis = m })
  in
  Array.iter (fun u -> set u false) r.covered;
  Array.iteri (fun i u -> set u r.output.(i)) r.region;
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
      let full = not t.cfg.incremental in
      let t0 = t.cfg.clock () in
      let result =
        Prof.gspan "dyn.repair" (fun () -> repair t ~batch ~attempt:1 ~full)
      in
      let elapsed = max 0. (t.cfg.clock () -. t0) in
      let flips = commit t ~batch result in
      if full then mcount t "dyn.repair.full_recomputes" 1;
      mcount t "dyn.flips" flips;
      let dirty_of r = Array.length r.covered + Array.length r.region in
      mobserve t "dyn.repair.dirty_nodes" (dirty_of result);
      mobserve t "dyn.repair.region_nodes" (Array.length result.region);
      (match t.cfg.metrics with
      | None -> ()
      | Some reg ->
        Metrics.timer_add
          (Metrics.timer reg "dyn.repair.seconds")
          ~seconds:elapsed ~calls:1);
      (* Invariant checker: hard-fail fast in strict mode; otherwise count
         the violation and heal with a full recompute, which must then
         pass. The report sums both repairs' dirty nodes, rounds and
         flips; the heal's region, every alive node, holds the first's. *)
      let checked =
        t.cfg.check_every > 0 && batch mod t.cfg.check_every = 0
      in
      let heal =
        if not checked then None
        else
          match check t with
          | Ok () -> None
          | Error msg ->
            mcount t "dyn.invariant_violations" 1;
            if t.cfg.strict then raise (Invariant_violation msg);
            let r = repair t ~batch ~attempt:2 ~full:true in
            let f = commit t ~batch r in
            mcount t "dyn.flips" f;
            (match check t with
            | Ok () -> ()
            | Error msg -> raise (Invariant_violation msg));
            Some (r, f)
      in
      let region, dirty, rounds, flips =
        match heal with
        | None -> (result.region, dirty_of result, result.rounds, flips)
        | Some (r, f) ->
          ( r.region,
            dirty_of result + dirty_of r,
            result.rounds + r.rounds,
            flips + f )
      in
      if t.cfg.metrics <> None then begin
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
        region_nodes = region;
        rounds;
        escalated = heal <> None;
        full_recompute = full || heal <> None;
        repair_seconds = elapsed;
        flips;
        live = Dyn_graph.alive_count t.g })
