module Trace = Mis_obs.Trace
module Prof = Mis_obs.Prof

type round_stat = {
  rs_messages : int;
  rs_dropped : int;
  rs_delayed : int;
  rs_decided : int;
  rs_crashed : int;
}

type outcome = {
  output : bool array;
  decided : bool array;
  rounds : int;
  messages : int;
  max_message_bits : int;
  dropped : int;
  delayed : int;
  in_flight : int;
  crashed : bool array;
  round_stats : round_stat array;
}

let ceil_log2 = Mis_util.Ids.ceil_log2

module Engine = struct
  (* One pending inbox per (delay ring slot, node slot): sender ids and
     payloads in parallel flat arrays, stored in push order — the FIFO
     delivery contract of the kernel. Capacity is kept across runs, so a
     steady-state [exec] pushes without allocating. Growth uses the pushed
     payload as the [Array.make] filler; ['m] needs no dummy value. *)
  type 'm vec = {
    mutable len : int;
    mutable v_ids : int array;
    mutable v_msgs : 'm array;
  }

  let vec_make () = { len = 0; v_ids = [||]; v_msgs = [||] }

  let vec_push v sender_id m =
    let cap = Array.length v.v_ids in
    if v.len = cap then begin
      let cap' = if cap = 0 then 4 else 2 * cap in
      let ids' = Array.make cap' 0 in
      let msgs' = Array.make cap' m in
      Array.blit v.v_ids 0 ids' 0 cap;
      Array.blit v.v_msgs 0 msgs' 0 cap;
      v.v_ids <- ids';
      v.v_msgs <- msgs'
    end;
    v.v_ids.(v.len) <- sender_id;
    v.v_msgs.(v.len) <- m;
    v.len <- v.len + 1

  type ('s, 'm) t = {
    (* Topology compilation shared with the kernel backend: slot maps
       and CSR adjacency. *)
    csr : Csr.t;
    n : int;
    ids : int array;
    active : int array;  (* slot -> node index *)
    slot : int array;  (* node index -> slot, or -1 *)
    adj_off : int array;
    adj_slot : int array;
    nbr_ids : int array array;  (* per slot: ids of the neighbors *)
    (* Reusable per-run scratch, reset in place by [exec]. *)
    states : 's option array;
    live : int array;  (* compacted undecided/uncrashed slots *)
    mutable live_len : int;
    (* Per-destination message sequence numbers, stamped by a token that
       is bumped once per action batch and never reset: a stale stamp
       reads as zero, so no per-round (or per-run) clearing is needed. *)
    seq_stamp : int array;
    seq_val : int array;
    mutable token : int;
    mutable ring : 'm vec array array;
    (* Per-slot contexts, built once: everything but [rng] is immutable
       across runs, so [exec] only re-seeds the rng field instead of
       allocating [nslots] records per execution. *)
    ectx : Node_ctx.t array;
  }

  let create ?ids view =
    let setup_span = Prof.gstart "runtime.setup" in
    let csr = Csr.compile ?ids view in
    let { Csr.n; ids; active; slot; adj_off; adj_slot; _ } = csr in
    let nslots = Array.length active in
    let nbr_ids =
      Array.init nslots (fun s ->
          Array.init (Csr.deg csr s)
            (fun k -> ids.(active.(adj_slot.(adj_off.(s) + k)))))
    in
    let blank_rng = Mis_util.Splitmix.of_seed 0 in
    let ectx =
      Array.mapi
        (fun s u ->
          { Node_ctx.index = u; id = ids.(u); n; neighbor_ids = nbr_ids.(s);
            rng = blank_rng })
        active
    in
    let e =
      { csr; n; ids; active; slot; adj_off; adj_slot; nbr_ids; ectx;
        states = Array.make nslots None;
        live = Array.make nslots 0;
        live_len = 0;
        seq_stamp = Array.make n (-1);
        seq_val = Array.make n 0;
        token = 0;
        ring = [||] }
    in
    Prof.gstop setup_span;
    e

  let view e = Csr.view e.csr

  let exec ?max_rounds ?size_bits ?(faults = Fault.none) ?tracer ~rng_of e
      (program : ('s, 'm) Program.t) =
    let loop_span = Prof.gstart "runtime.rounds" in
    let n = e.n in
    let active = e.active in
    let nslots = Array.length active in
    let max_rounds =
      match max_rounds with
      | Some r -> r
      | None -> 64 + (64 * ceil_log2 (max n 2))
    in
    (* The null sink must be indistinguishable from no tracer: both skip
       event construction entirely (zero-cost guarantee). *)
    let trace_on, emit =
      match tracer with
      | Some s when not (Trace.is_null s) -> (true, s.Trace.emit)
      | Some _ | None -> (false, ignore)
    in
    let fault_active = not (Fault.is_none faults) in
    let crash_round =
      if fault_active then Fault.crash_rounds faults ~n else [||]
    in
    let adversary = Fault.adversary faults in
    (* Messages sent during round r are due at rounds r+1 .. r+1+max_delay;
       with one extra slot those residues never collide with r itself, so
       round r's buffer needs no copy-out before the sends of round r. *)
    let delay_slots = Fault.max_delay faults + 2 in
    if Array.length e.ring < delay_slots then
      e.ring <-
        Array.init delay_slots (fun _ ->
            Array.init nslots (fun _ -> vec_make ()))
    else
      for q = 0 to delay_slots - 1 do
        Array.iter (fun v -> v.len <- 0) e.ring.(q)
      done;
    let ring = e.ring in
    let states = e.states in
    (* Re-seed the cached contexts in slot order — the same [rng_of]
       call order the old per-exec allocation used, so keyed streams are
       drawn identically. *)
    let ctx = e.ectx in
    Array.iteri (fun s u -> ctx.(s).Node_ctx.rng <- rng_of u) active;
    let output = Array.make n false in
    let decided = Array.make n false in
    let crashed = Array.make n false in
    for s = 0 to nslots - 1 do
      e.live.(s) <- s
    done;
    e.live_len <- nslots;
    let messages = ref 0 in
    let dropped = ref 0 in
    let delayed = ref 0 in
    let consumed = ref 0 in
    let max_bits = ref 0 in
    let current_round = ref 0 in
    (* Per-round accounting: a handful of int bumps per event, always on, so
       [round_stats] is available without a tracer. Counters are flushed
       into [stats] at the end of every round (round 0 = the initial step). *)
    let stats = ref [] in
    let r_messages = ref 0 in
    let r_dropped = ref 0 in
    let r_delayed = ref 0 in
    let r_decided = ref 0 in
    let r_crashed = ref 0 in
    let flush_round_stats () =
      stats :=
        { rs_messages = !r_messages; rs_dropped = !r_dropped;
          rs_delayed = !r_delayed; rs_decided = !r_decided;
          rs_crashed = !r_crashed }
        :: !stats;
      if trace_on then
        emit
          (Trace.Round_end
             { round = !current_round; messages = !r_messages;
               dropped = !r_dropped; delayed = !r_delayed;
               decided = !r_decided; crashed = !r_crashed });
      r_messages := 0;
      r_dropped := 0;
      r_delayed := 0;
      r_decided := 0;
      r_crashed := 0
    in
    let record_size m =
      match size_bits with
      | None -> ()
      | Some f ->
        let b = f m in
        if b > !max_bits then max_bits := b
    in
    let enqueue s delivery sender_id m =
      vec_push ring.(delivery mod delay_slots).(s) sender_id m;
      incr messages;
      incr r_messages;
      record_size m
    in
    let record_drop ~src ~dst reason =
      incr dropped;
      incr r_dropped;
      if trace_on then
        emit (Trace.Drop { round = !current_round; src; dst; reason })
    in
    (* [v] is an active neighbor of [src] and [s] its slot. *)
    let deliver_to ~src ~sender_id s v m =
      if not decided.(v) then begin
        if trace_on then
          emit (Trace.Send { round = !current_round; src; dst = v });
        if not fault_active then enqueue s (!current_round + 1) sender_id m
        else begin
          let round = !current_round in
          (* seq distinguishes the drop/delay keys of multiple same-round
             messages on the same directed edge (e.g. a Broadcast plus a
             Send). A node acts once per round, so counting per
             destination within the current action batch is exactly a
             per-(src, dst, round) sequence. *)
          let seq =
            if e.seq_stamp.(v) <> e.token then begin
              e.seq_stamp.(v) <- e.token;
              e.seq_val.(v) <- 0
            end;
            let c = e.seq_val.(v) in
            e.seq_val.(v) <- c + 1;
            c
          in
          let adv_drop =
            match adversary with
            | Some f -> f ~round ~src ~dst:v
            | None -> false
          in
          let p = Fault.drop_prob faults ~src ~dst:v in
          let rand_drop =
            (not adv_drop) && p > 0.
            && Fault.drop_roll faults ~round ~src ~dst:v ~seq < p
          in
          if adv_drop then record_drop ~src ~dst:v Trace.Adversary
          else if rand_drop then record_drop ~src ~dst:v Trace.Random
          else begin
            let d = Fault.delay_roll faults ~round ~src ~dst:v ~seq in
            let delivery = round + 1 + d in
            (* A message reaching a node at or after its crash round is
               lost. *)
            if crash_round.(v) <= delivery then
              record_drop ~src ~dst:v Trace.Crashed_dst
            else begin
              enqueue s delivery sender_id m;
              if d > 0 then begin
                incr delayed;
                incr r_delayed;
                if trace_on then
                  emit (Trace.Delay { round; src; dst = v; delay = d })
              end
            end
          end
        end
      end
    in
    let perform s actions =
      let u = active.(s) in
      let sender_id = e.ids.(u) in
      e.token <- e.token + 1;
      List.iter
        (fun action ->
          match action with
          | Program.Broadcast m ->
            for k = e.adj_off.(s) to e.adj_off.(s + 1) - 1 do
              let ts = e.adj_slot.(k) in
              deliver_to ~src:u ~sender_id ts active.(ts) m
            done
          | Program.Send (target_id, m) ->
            (* A linear scan of the sender's neighbor ids: no library
               program sends point-to-point, so no id index is kept. *)
            let nb = e.nbr_ids.(s) in
            let k = ref 0 in
            while !k < Array.length nb && nb.(!k) <> target_id do
              incr k
            done;
            if !k = Array.length nb then
              invalid_arg
                (Printf.sprintf "Runtime.run(%s): send to non-neighbor id %d"
                   program.Program.name target_id);
            let ts = e.adj_slot.(e.adj_off.(s) + !k) in
            deliver_to ~src:u ~sender_id ts active.(ts) m
          | Program.Probe (key, value) ->
            if trace_on then
              emit
                (Trace.Annotate
                   { round = !current_round; node = u; key; value }))
        actions
    in
    let undecided = ref nslots in
    (* Crash schedule compiled to a (round, slot)-sorted array walked by a
       cursor: rounds are visited in increasing order, so each entry fires
       exactly at its round, in the same active-order the legacy per-round
       scan produced. *)
    let crash_sched =
      if not fault_active then [||]
      else begin
        let acc = ref [] in
        Array.iter
          (fun u -> if crash_round.(u) < max_int then acc := u :: !acc)
          active;
        let a = Array.of_list !acc in
        Array.sort
          (fun u v ->
            let c = compare crash_round.(u) crash_round.(v) in
            if c <> 0 then c else compare e.slot.(u) e.slot.(v))
          a;
        a
      end
    in
    let crash_cursor = ref 0 in
    let crash_events_at r =
      while
        !crash_cursor < Array.length crash_sched
        && crash_round.(crash_sched.(!crash_cursor)) = r
      do
        let u = crash_sched.(!crash_cursor) in
        incr crash_cursor;
        (* A crash after [Output] is a no-op: the decision was already
           committed and announced. *)
        if not (crashed.(u) || decided.(u)) then begin
          crashed.(u) <- true;
          decr undecided;
          incr r_crashed;
          if trace_on then emit (Trace.Crash { round = r; node = u })
        end
      done
    in
    (* Drop decided and crashed slots from the iteration list, preserving
       slot order, so later rounds only visit live nodes. *)
    let compact_live () =
      let w = ref 0 in
      for li = 0 to e.live_len - 1 do
        let s = e.live.(li) in
        let u = active.(s) in
        if not (decided.(u) || crashed.(u)) then begin
          e.live.(!w) <- s;
          incr w
        end
      done;
      e.live_len <- !w
    in
    if trace_on then begin
      emit
        (Trace.Run_begin
           { program = program.Program.name; n; active = nslots });
      emit (Trace.Round_begin { round = 0 })
    end;
    Array.iteri
      (fun s u ->
        let state, actions = program.Program.init ctx.(s) in
        states.(s) <- Some state;
        if (not fault_active) || crash_round.(u) > 0 then perform s actions)
      active;
    crash_events_at 0;
    if !r_decided > 0 || !r_crashed > 0 then compact_live ();
    flush_round_stats ();
    let rounds = ref 0 in
    while !undecided > 0 && !rounds < max_rounds do
      incr rounds;
      let r = !rounds in
      current_round := r;
      if trace_on then emit (Trace.Round_begin { round = r });
      crash_events_at r;
      let buf = ring.(r mod delay_slots) in
      for li = 0 to e.live_len - 1 do
        let s = e.live.(li) in
        let u = active.(s) in
        if not (decided.(u) || crashed.(u)) then begin
          match states.(s) with
          | None -> assert false
          | Some state ->
            let v = buf.(s) in
            let k = v.len in
            let inbox =
              if k = 0 then []
              else begin
                v.len <- 0;
                consumed := !consumed + k;
                if trace_on then
                  emit (Trace.Recv { round = r; node = u; messages = k });
                (* Cons back-to-front: the list head is the earliest push,
                   i.e. delivery in send order (FIFO). *)
                let acc = ref [] in
                for i = k - 1 downto 0 do
                  acc := (v.v_ids.(i), v.v_msgs.(i)) :: !acc
                done;
                !acc
              end
            in
            let status, actions = program.Program.receive ctx.(s) state inbox in
            perform s actions;
            (match status with
            | Program.Continue state' -> states.(s) <- Some state'
            | Program.Output b ->
              output.(u) <- b;
              decided.(u) <- true;
              decr undecided;
              incr r_decided;
              if trace_on then
                emit (Trace.Decide { round = r; node = u; in_mis = b }))
        end
      done;
      if !r_decided > 0 || !r_crashed > 0 then compact_live ();
      flush_round_stats ()
    done;
    Prof.gstop loop_span;
    let decided_total =
      Array.fold_left (fun a b -> if b then a + 1 else a) 0 decided
    in
    let in_flight = !messages - !consumed in
    if trace_on then
      emit
        (Trace.Run_end
           { rounds = !rounds; messages = !messages; dropped = !dropped;
             delayed = !delayed; decided = decided_total; in_flight });
    let round_stats = Array.of_list (List.rev !stats) in
    { output; decided; rounds = !rounds; messages = !messages;
      max_message_bits = !max_bits; dropped = !dropped; delayed = !delayed;
      in_flight; crashed; round_stats }
end

let run ?max_rounds ?size_bits ?ids ?faults ?tracer ~rng_of view program =
  let engine = Engine.create ?ids view in
  Engine.exec ?max_rounds ?size_bits ?faults ?tracer ~rng_of engine program

(* The data-parallel sibling backend, re-exported here so call sites can
   spell the pair as [Runtime.Engine] / [Runtime.Kernel]. *)
module Kernel = Kernel
