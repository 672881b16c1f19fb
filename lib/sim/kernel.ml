module Prof = Mis_obs.Prof

(* Data-parallel execution backend: the core programs expressed as flat
   array sweeps over the compiled CSR instead of message passing — the
   omega_h / GraphBLAS MIS style. No inbox is ever allocated; per-round
   work is a frontier scan with staged offers. A warm run allocates its
   outcome (three n-word arrays and the record) and one free-list cell
   per scratch it gives back: 8 words beyond the arrays for Luby, 11 for
   FairTree, by Gc.minor_words at n = 121. The coins come from
   [Rand_plan]'s fixed-arity draws, which allocate nothing, so a whole
   verified trial stays within 3n + 64 words (test/test_rand_plan.ml).
   Resident, a kernel with one scratch of each kind holds 16.5 words
   per node of a tree beyond its view (test/test_kernel.ml bounds it).

   The contract with [Runtime.Engine] is bit-identity on a perfect
   network: same outputs, same per-node decision round, same [rounds]
   count (including the [max_rounds] cutoff behavior). The sweeps below
   therefore simulate the *synchronous* round structure exactly:

   - flood-max is monotone and idempotent, so a changed-node frontier
     with offers staged against the previous round's values reproduces
     each synchronous round (an unchanged sender's offer was already
     folded the round before);
   - BFS adoption only ever improves a node's (lead, depth) key, and
     equal keys carry equal bits (the bit travels unchanged from the
     lead), so the same staging argument applies;
   - an empty frontier is a fixpoint, so breaking early is equivalent to
     running the remaining no-op rounds — but a stage never runs *more*
     than its [gamma] rounds, because the flood may not have converged. *)

type outcome = {
  output : bool array;
  decided : bool array;
  decide_round : int array;
  rounds : int;
}

let ceil_log2 = Mis_util.Ids.ceil_log2

let default_max_rounds n = 64 + (64 * ceil_log2 (max n 2))

(* Scratch for the Luby phase loop, cached across runs. All arrays are
   indexed by slot; [l_front]/[l_winners] hold slot lists, [l_alive]
   holds one byte (0 or 1) per slot. *)
type luby_scratch = {
  l_value : int array;
  l_alive : Bytes.t;
  l_front : int array;
  l_winners : int array;
}

(* Scratch for the FairTree stage pipeline, indexed by slot except
   [f_allowed], one byte (0 or 1) per CSR entry. [f_best] holds a
   stage's flood value and then, from BFS init on, its BFS lead.
   [f_offer] stages the current round's incoming flood value or BFS
   lead, [f_odepth] the BFS depth ([inext] marks staged slots, reset on
   apply, [f_touch] lists them). Per-slot flags are the bits of one byte
   in [f_flags]. *)
type ft_scratch = {
  f_best : int array;
  f_depth : int array;
  f_offer : int array;
  f_odepth : int array;
  f_touch : int array;
  f_front : int array;
  f_front2 : int array;
  f_pdeg : int array;
  f_flags : Bytes.t;
  f_allowed : Bytes.t;
}

(* The [f_flags] bits: a node's BFS parity bit and its staged offer's,
   the staged mark, and the stage sets I1, I2, uncovered, I3 and I4. *)
let bit = 1 and obit = 2 and inext = 4 and i1 = 8
let i2 = 16 and unc = 32 and i3 = 64 and i4 = 128

let[@inline] has flags s f = Bytes.get_uint8 flags s land f <> 0

let[@inline] put flags s f b =
  let x = Bytes.get_uint8 flags s in
  Bytes.set_uint8 flags s (if b then x lor f else x land lnot f)

(* Scratch lives on one lock-free free list per kind, so a compiled
   kernel can be shared by every domain of a trial pool: a run takes a
   scratch (allocating one only when the list is empty) and gives it back
   when it ends. The number of scratches is therefore bounded by the
   number of concurrent runs, not by the number of runs. A run that
   raises drops its scratch instead of returning it half-updated. The
   CAS on the list head is ABA-safe because every push allocates a fresh
   cons cell.

   A kernel keeps only the parts of the {!Csr} compile its sweeps read,
   plus [sid], each slot's program-visible id. *)
type t = {
  k_view : Mis_graph.View.t;
  n : int;
  active : int array;
  sid : int array;
  adj_off : int array;
  adj_slot : int array;
  luby_free : luby_scratch list Atomic.t;
  ft_free : ft_scratch list Atomic.t;
}

let create ?ids view =
  let c = Csr.compile ?ids view in
  let sid = Array.map (fun u -> c.Csr.ids.(u)) c.Csr.active in
  { k_view = view; n = c.Csr.n; active = c.Csr.active; sid;
    adj_off = c.Csr.adj_off; adj_slot = c.Csr.adj_slot;
    luby_free = Atomic.make []; ft_free = Atomic.make [] }

let view t = t.k_view
let nslots t = Array.length t.active

let rec take free make t =
  match Atomic.get free with
  | [] -> make t
  | s :: rest as cur ->
    if Atomic.compare_and_set free cur rest then s else take free make t

let rec give free s =
  let cur = Atomic.get free in
  if not (Atomic.compare_and_set free cur (s :: cur)) then give free s

let make_luby_scratch t =
  let k = nslots t in
  { l_value = Array.make k 0; l_alive = Bytes.make k '\000';
    l_front = Array.make k 0; l_winners = Array.make k 0 }

let make_ft_scratch t =
  let k = nslots t in
  let ints x = Array.make k x in
  { f_best = ints 0; f_depth = ints 0;
    f_offer = ints 0; f_odepth = ints 0; f_touch = ints 0; f_front = ints 0;
    f_front2 = ints 0; f_pdeg = ints 0; f_flags = Bytes.make k '\000';
    f_allowed = Bytes.make (Array.length t.adj_slot) '\000' }

(* One Luby execution over the frontier [scr.l_front.(0 .. flen-1)]
   (slots, in slot order; [scr.l_alive] must mark exactly those slots).
   Phase [p] of the message protocol spans rounds [base + 3p ..
   base + 3p + 2]: values broadcast at [base + 3p], winners decide at
   [base + 3p + 1], covered neighbors at [base + 3p + 2]. Decisions past
   [max_rounds] do not happen and the run reports [rounds = max_rounds],
   mirroring the engine's cutoff. Returns the last executed round. *)
let run_luby_phases t ~scr ~value_of ~base ~max_rounds ~flen:flen0
    ~undecided:undec0 ~output ~decided ~decide_round =
  let adj_off = t.adj_off and adj_slot = t.adj_slot in
  let active = t.active and sid = t.sid in
  let alive = scr.l_alive and value = scr.l_value in
  let front = scr.l_front and winners = scr.l_winners in
  let flen = ref flen0 and undecided = ref undec0 in
  let phase = ref 0 in
  let rounds = ref base in
  let stop = ref false in
  while (not !stop) && !undecided > 0 do
    let p = !phase in
    let r_win = base + (3 * p) + 1 in
    let r_cov = base + (3 * p) + 2 in
    if r_win > max_rounds then begin
      rounds := max_rounds;
      stop := true
    end
    else begin
      for i = 0 to !flen - 1 do
        let s = front.(i) in
        value.(s) <- value_of ~round:p ~id:sid.(s)
      done;
      (* Winner scan over the pre-marking snapshot: a node wins when its
         (value, id) strictly beats every live neighbor's. *)
      let wlen = ref 0 in
      for i = 0 to !flen - 1 do
        let s = front.(i) in
        let mv = value.(s) and mid = sid.(s) in
        let beaten = ref false in
        let k = ref adj_off.(s) in
        let k1 = adj_off.(s + 1) - 1 in
        while (not !beaten) && !k <= k1 do
          let ts = adj_slot.(!k) in
          if Bytes.get_uint8 alive ts <> 0 then begin
            let tv = value.(ts) in
            if not (mv < tv || (mv = tv && mid < sid.(ts))) then
              beaten := true
          end;
          incr k
        done;
        if not !beaten then begin
          winners.(!wlen) <- s;
          incr wlen
        end
      done;
      for i = 0 to !wlen - 1 do
        let u = active.(winners.(i)) in
        output.(u) <- true;
        decided.(u) <- true;
        decide_round.(u) <- r_win
      done;
      undecided := !undecided - !wlen;
      if !undecided = 0 then begin
        rounds := r_win;
        stop := true
      end
      else begin
        for i = 0 to !wlen - 1 do
          Bytes.set_uint8 alive winners.(i) 0
        done;
        if r_cov > max_rounds then begin
          rounds := max_rounds;
          stop := true
        end
        else begin
          let cov = ref 0 in
          for i = 0 to !wlen - 1 do
            let s = winners.(i) in
            for k = adj_off.(s) to adj_off.(s + 1) - 1 do
              let ts = adj_slot.(k) in
              if Bytes.get_uint8 alive ts <> 0 then begin
                Bytes.set_uint8 alive ts 0;
                let u = active.(ts) in
                output.(u) <- false;
                decided.(u) <- true;
                decide_round.(u) <- r_cov;
                incr cov
              end
            done
          done;
          undecided := !undecided - !cov;
          if !undecided = 0 then begin
            rounds := r_cov;
            stop := true
          end
          else begin
            let w = ref 0 in
            for i = 0 to !flen - 1 do
              let s = front.(i) in
              if Bytes.get_uint8 alive s <> 0 then begin
                front.(!w) <- s;
                incr w
              end
            done;
            flen := !w;
            incr phase
          end
        end
      end
    end
  done;
  !rounds

let luby ?max_rounds ~value_of t =
  let span = Prof.gstart "kernel.luby" in
  let n = t.n in
  let nslots = nslots t in
  let max_rounds =
    match max_rounds with Some r -> r | None -> default_max_rounds n
  in
  let scr = take t.luby_free make_luby_scratch t in
  let output = Array.make n false in
  let decided = Array.make n false in
  let decide_round = Array.make n (-1) in
  Bytes.fill scr.l_alive 0 nslots '\001';
  for s = 0 to nslots - 1 do
    scr.l_front.(s) <- s
  done;
  let rounds =
    run_luby_phases t ~scr ~value_of ~base:0 ~max_rounds ~flen:nslots
      ~undecided:nslots ~output ~decided ~decide_round
  in
  give t.luby_free scr;
  Prof.gstop span;
  { output; decided; decide_round; rounds }

type fair_tree_coins = {
  cut : u:int -> v:int -> bool;
  bit1 : int -> bool;
  bit2 : int -> bool;
  bit3 : int -> bool;
  luby_value : round:int -> id:int -> int;
}

(* The FairTree stage sweeps below are top-level functions over the
   kernel and a scratch, not closures inside [fair_tree], so a run
   allocates only its outcome. A stage's participants are the slots
   whose [f_flags] carry the [mask] bit; [mask = 0] means every slot. *)

(* Stages 2 and 3 over the participants [mask], in one pass: the allowed
   entries join two participants, [pdeg] counts participant neighbors
   (the message protocol's [List.length i1_neighbors]), and the flood
   frontier lists the participants with [best] at their own id. Returns
   the frontier length. *)
let stage_setup t ~scr mask =
  let adj_off = t.adj_off and adj_slot = t.adj_slot in
  let flags = scr.f_flags and allowed = scr.f_allowed in
  let flen = ref 0 in
  for s = 0 to nslots t - 1 do
    let inside = has flags s mask in
    let d = ref 0 in
    for k = adj_off.(s) to adj_off.(s + 1) - 1 do
      let t_in = has flags adj_slot.(k) mask in
      Bytes.set_uint8 allowed k (Bool.to_int (inside && t_in));
      if t_in then incr d
    done;
    scr.f_pdeg.(s) <- !d;
    if inside then begin
      scr.f_best.(s) <- t.sid.(s);
      scr.f_front.(!flen) <- s;
      incr flen
    end
  done;
  !flen

(* [gamma] synchronous rounds of flood-max over the allowed entries from
   the frontier [scr.f_front.(0 .. flen-1)], whose [best] starts at the
   own id. *)
let flood t ~scr ~g ~flen:flen0 =
  let adj_off = t.adj_off and adj_slot = t.adj_slot in
  let flags = scr.f_flags and touch = scr.f_touch in
  let allowed = scr.f_allowed and best = scr.f_best and offer = scr.f_offer in
  let flen = ref flen0 in
  let cur = ref scr.f_front and nxt = ref scr.f_front2 in
  let r = ref 0 in
  while !r < g && !flen > 0 do
    incr r;
    let ntouch = ref 0 in
    for i = 0 to !flen - 1 do
      let s = (!cur).(i) in
      let b = best.(s) in
      for k = adj_off.(s) to adj_off.(s + 1) - 1 do
        if Bytes.get_uint8 allowed k <> 0 then begin
          let ts = adj_slot.(k) in
          if b > best.(ts) then begin
            if not (has flags ts inext) then begin
              put flags ts inext true;
              offer.(ts) <- b;
              touch.(!ntouch) <- ts;
              incr ntouch
            end
            else if b > offer.(ts) then offer.(ts) <- b
          end
        end
      done
    done;
    let nlen = ref 0 in
    for i = 0 to !ntouch - 1 do
      let ts = touch.(i) in
      put flags ts inext false;
      if offer.(ts) > best.(ts) then begin
        best.(ts) <- offer.(ts);
        (!nxt).(!nlen) <- ts;
        incr nlen
      end
    done;
    let tmp = !cur in
    cur := !nxt;
    nxt := tmp;
    flen := !nlen
  done

(* [gamma] synchronous rounds of BFS adoption from the leaders
   (participants whose flood converged on their own id). A node adopts
   the offer (lead, depth + 1, bit) when it has no lead yet or the
   offer's (lead, depth) key is strictly better. Init reads each slot's
   flood value before it writes the slot's lead over it; a slot without
   a lead keeps a stale depth and bit, which nothing reads. *)
let bfs t ~scr ~g mask bit_for =
  let adj_off = t.adj_off and adj_slot = t.adj_slot and sid = t.sid in
  let front = scr.f_front and flags = scr.f_flags and touch = scr.f_touch in
  let allowed = scr.f_allowed and lead = scr.f_best and depth = scr.f_depth in
  let olead = scr.f_offer and odepth = scr.f_odepth in
  let flen = ref 0 in
  for s = 0 to nslots t - 1 do
    let id = sid.(s) in
    if (mask = 0 || has flags s mask) && lead.(s) = id then begin
      depth.(s) <- 0;
      put flags s bit (bit_for id);
      front.(!flen) <- s;
      incr flen
    end
    else lead.(s) <- -1
  done;
  let cur = ref front and nxt = ref scr.f_front2 in
  let r = ref 0 in
  while !r < g && !flen > 0 do
    incr r;
    let ntouch = ref 0 in
    for i = 0 to !flen - 1 do
      let s = (!cur).(i) in
      let ol = lead.(s) and od = depth.(s) + 1 and ob = has flags s bit in
      for k = adj_off.(s) to adj_off.(s + 1) - 1 do
        if Bytes.get_uint8 allowed k <> 0 then begin
          let ts = adj_slot.(k) in
          if not (has flags ts inext) then begin
            put flags ts inext true;
            olead.(ts) <- ol;
            odepth.(ts) <- od;
            put flags ts obit ob;
            touch.(!ntouch) <- ts;
            incr ntouch
          end
          else if ol > olead.(ts) || (ol = olead.(ts) && od < odepth.(ts))
          then begin
            olead.(ts) <- ol;
            odepth.(ts) <- od;
            put flags ts obit ob
          end
        end
      done
    done;
    let nlen = ref 0 in
    for i = 0 to !ntouch - 1 do
      let ts = touch.(i) in
      put flags ts inext false;
      let ol = olead.(ts) and od = odepth.(ts) in
      if lead.(ts) < 0 || ol > lead.(ts) || (ol = lead.(ts) && od < depth.(ts))
      then begin
        lead.(ts) <- ol;
        depth.(ts) <- od;
        put flags ts bit (has flags ts obit);
        (!nxt).(!nlen) <- ts;
        incr nlen
      end
    done;
    let tmp = !cur in
    cur := !nxt;
    nxt := tmp;
    flen := !nlen
  done

let joined scr s =
  if scr.f_pdeg.(s) = 0 then true
  else if scr.f_best.(s) < 0 then false
  else
    (scr.f_depth.(s) + Bool.to_int (has scr.f_flags s bit)) mod 2 = 0

(* Whether some neighbor of slot [s] carries flag [f]. *)
let[@inline] near t flags f s =
  let hit = ref false in
  let k = ref t.adj_off.(s) in
  let k1 = t.adj_off.(s + 1) - 1 in
  while (not !hit) && !k <= k1 do
    if has flags t.adj_slot.(!k) f then hit := true;
    incr k
  done;
  !hit

let fair_tree ?max_rounds ~gamma ~coins t =
  if gamma < 1 then invalid_arg "Kernel.fair_tree: gamma";
  let span = Prof.gstart "kernel.fair_tree" in
  let n = t.n in
  let nslots = nslots t in
  let g = gamma in
  let max_rounds =
    match max_rounds with
    | Some r -> r
    | None -> (6 * g) + 6 + (64 * (ceil_log2 (max n 2) + 2))
  in
  let output = Array.make n false in
  let decided = Array.make n false in
  let decide_round = Array.make n (-1) in
  let r_decide = (6 * g) + 5 in
  let rounds =
    if nslots = 0 then 0
    else if r_decide > max_rounds then
      (* The first decision round lies past the cutoff: the engine runs
         [max_rounds] rounds of protocol and gives up undecided. *)
      max_rounds
    else begin
      let adj_off = t.adj_off and adj_slot = t.adj_slot in
      let active = t.active and sid = t.sid in
      let scr = take t.ft_free make_ft_scratch t in
      let flags = scr.f_flags and allowed = scr.f_allowed in
      (* Stage 1: CntrlFairBipart over the uncut edges; all nodes
         participate. The cut coin is symmetric in (min id, max id), so
         the per-entry mask agrees across both directions. Each edge's
         coin is drawn from both of its entries: a once-per-edge draw
         would need a 2m mirror index. The same pass clears the flags
         and seeds the flood at every slot. *)
      for s = 0 to nslots - 1 do
        let a = sid.(s) in
        let d = ref 0 in
        for k = adj_off.(s) to adj_off.(s + 1) - 1 do
          let b = sid.(adj_slot.(k)) in
          let ok =
            not (if a < b then coins.cut ~u:a ~v:b else coins.cut ~u:b ~v:a)
          in
          Bytes.set_uint8 allowed k (Bool.to_int ok);
          if ok then incr d
        done;
        scr.f_pdeg.(s) <- !d;
        Bytes.set_uint8 flags s 0;
        scr.f_best.(s) <- a;
        scr.f_front.(s) <- s
      done;
      flood t ~scr ~g ~flen:nslots;
      bfs t ~scr ~g 0 coins.bit1;
      for s = 0 to nslots - 1 do
        put flags s i1 (joined scr s)
      done;
      (* Stage 2: the same pipeline on the subgraph induced by I1, over
         all edges. *)
      flood t ~scr ~g ~flen:(stage_setup t ~scr i1);
      bfs t ~scr ~g i1 coins.bit2;
      for s = 0 to nslots - 1 do
        put flags s i2 (has flags s i1 && joined scr s)
      done;
      (* Coverage: a node is uncovered when neither it nor any neighbor
         joined I2. *)
      for s = 0 to nslots - 1 do
        put flags s unc (not (has flags s i2 || near t flags i2 s))
      done;
      (* Stage 3: the pipeline once more on the uncovered nodes. *)
      flood t ~scr ~g ~flen:(stage_setup t ~scr unc);
      bfs t ~scr ~g unc coins.bit3;
      for s = 0 to nslots - 1 do
        put flags s i3 (has flags s i2 || (has flags s unc && joined scr s))
      done;
      (* Independence repair: drop both endpoints of any I3 conflict. *)
      for s = 0 to nslots - 1 do
        put flags s i4 (has flags s i3 && not (near t flags i3 s))
      done;
      (* Decisions at round 6g+5: I4 joins, I4-neighbors are covered, the
         rest fall through to a Luby run among themselves. *)
      let undecided = ref nslots in
      let scrl = take t.luby_free make_luby_scratch t in
      Bytes.fill scrl.l_alive 0 nslots '\000';
      let flen = ref 0 in
      for s = 0 to nslots - 1 do
        let u = active.(s) in
        if has flags s i4 || near t flags i4 s then begin
          output.(u) <- has flags s i4;
          decided.(u) <- true;
          decide_round.(u) <- r_decide;
          decr undecided
        end
        else begin
          Bytes.set_uint8 scrl.l_alive s 1;
          scrl.l_front.(!flen) <- s;
          incr flen
        end
      done;
      give t.ft_free scr;
      let rounds =
        if !undecided = 0 then r_decide
        else
          run_luby_phases t ~scr:scrl ~value_of:coins.luby_value
            ~base:r_decide ~max_rounds ~flen:!flen ~undecided:!undecided
            ~output ~decided ~decide_round
      in
      give t.luby_free scrl;
      rounds
    end
  in
  Prof.gstop span;
  { output; decided; decide_round; rounds }
