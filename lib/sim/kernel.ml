module Prof = Mis_obs.Prof

(* Data-parallel execution backend: the core programs expressed as flat
   array sweeps over the compiled CSR instead of message passing — the
   omega_h / GraphBLAS MIS style. No inbox is ever allocated; per-round
   work is a frontier scan with staged offers. A warm run allocates its
   outcome (three n-word arrays and the record) and one free-list cell
   per scratch it gives back: 8 words beyond the arrays for Luby, 11 for
   FairTree, by Gc.minor_words. The coins come from [Rand_plan]'s
   fixed-arity draws, which allocate nothing, so a whole verified trial
   stays within 3n + 64 words (test/test_rand_plan.ml).

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
   indexed by slot; [l_front]/[l_winners] hold slot lists. *)
type luby_scratch = {
  l_value : int array;
  l_alive : bool array;
  l_front : int array;
  l_winners : int array;
}

(* Scratch for the FairTree stage pipeline. [f_allowed] is indexed by
   CSR adjacency entry; everything else by slot. [f_obest] /
   [f_olead]/[f_odepth]/[f_obit] stage the current round's incoming
   offers ([f_inext] marks staged slots, reset on apply, [f_touch]
   lists them). *)
type ft_scratch = {
  f_best : int array;
  f_lead : int array;
  f_depth : int array;
  f_bit : bool array;
  f_obest : int array;
  f_olead : int array;
  f_odepth : int array;
  f_obit : bool array;
  f_inext : bool array;
  f_touch : int array;
  f_front : int array;
  f_front2 : int array;
  f_allowed : bool array;
  f_all : bool array;  (* constant all-true participant mask *)
  f_pdeg : int array;
  f_i1 : bool array;
  f_i2 : bool array;
  f_unc : bool array;
  f_i3 : bool array;
  f_i4 : bool array;
}

(* Scratch lives on one lock-free free list per kind, so a compiled
   kernel can be shared by every domain of a trial pool: a run takes a
   scratch (allocating one only when the list is empty) and gives it back
   when it ends. The number of scratches is therefore bounded by the
   number of concurrent runs, not by the number of runs. A run that
   raises drops its scratch instead of returning it half-updated. The
   CAS on the list head is ABA-safe because every push allocates a fresh
   cons cell. *)
type t = {
  csr : Csr.t;
  luby_free : luby_scratch list Atomic.t;
  ft_free : ft_scratch list Atomic.t;
}

let of_csr csr = { csr; luby_free = Atomic.make []; ft_free = Atomic.make [] }
let create ?ids view = of_csr (Csr.compile ?ids view)
let view t = Csr.view t.csr
let csr t = t.csr

let rec take free make t =
  match Atomic.get free with
  | [] -> make t
  | s :: rest as cur ->
    if Atomic.compare_and_set free cur rest then s else take free make t

let rec give free s =
  let cur = Atomic.get free in
  if not (Atomic.compare_and_set free cur (s :: cur)) then give free s

let make_luby_scratch t =
  let k = max 1 (Csr.nslots t.csr) in
  { l_value = Array.make k 0; l_alive = Array.make k false;
    l_front = Array.make k 0; l_winners = Array.make k 0 }

let make_ft_scratch t =
  let k = max 1 (Csr.nslots t.csr) in
  let e = Array.length t.csr.Csr.adj_node in
  { f_best = Array.make k 0; f_lead = Array.make k (-1);
    f_depth = Array.make k (-1); f_bit = Array.make k false;
    f_obest = Array.make k 0; f_olead = Array.make k (-1);
    f_odepth = Array.make k 0; f_obit = Array.make k false;
    f_inext = Array.make k false; f_touch = Array.make k 0;
    f_front = Array.make k 0; f_front2 = Array.make k 0;
    f_allowed = Array.make e false; f_all = Array.make k true;
    f_pdeg = Array.make k 0; f_i1 = Array.make k false;
    f_i2 = Array.make k false; f_unc = Array.make k false;
    f_i3 = Array.make k false; f_i4 = Array.make k false }

(* One Luby execution over the frontier [scr.l_front.(0 .. flen-1)]
   (slots, in slot order; [scr.l_alive] must mark exactly those slots).
   Phase [p] of the message protocol spans rounds [base + 3p ..
   base + 3p + 2]: values broadcast at [base + 3p], winners decide at
   [base + 3p + 1], covered neighbors at [base + 3p + 2]. Decisions past
   [max_rounds] do not happen and the run reports [rounds = max_rounds],
   mirroring the engine's cutoff. Returns the last executed round. *)
let run_luby_phases ~csr ~scr ~value_of ~base ~max_rounds ~flen:flen0
    ~undecided:undec0 ~output ~decided ~decide_round =
  let adj_off = csr.Csr.adj_off and adj_slot = csr.Csr.adj_slot in
  let active = csr.Csr.active and ids = csr.Csr.ids in
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
        value.(s) <- value_of ~round:p ~id:ids.(active.(s))
      done;
      (* Winner scan over the pre-marking snapshot: a node wins when its
         (value, id) strictly beats every live neighbor's. *)
      let wlen = ref 0 in
      for i = 0 to !flen - 1 do
        let s = front.(i) in
        let mv = value.(s) and mid = ids.(active.(s)) in
        let beaten = ref false in
        let k = ref adj_off.(s) in
        let k1 = adj_off.(s + 1) - 1 in
        while (not !beaten) && !k <= k1 do
          let ts = adj_slot.(!k) in
          if alive.(ts) then begin
            let tv = value.(ts) in
            if not (mv < tv || (mv = tv && mid < ids.(active.(ts)))) then
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
          alive.(winners.(i)) <- false
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
              if alive.(ts) then begin
                alive.(ts) <- false;
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
              if alive.(s) then begin
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
  let cs = t.csr in
  let n = cs.Csr.n in
  let nslots = Csr.nslots cs in
  let max_rounds =
    match max_rounds with Some r -> r | None -> default_max_rounds n
  in
  let scr = take t.luby_free make_luby_scratch t in
  let output = Array.make n false in
  let decided = Array.make n false in
  let decide_round = Array.make n (-1) in
  Array.fill scr.l_alive 0 nslots true;
  for s = 0 to nslots - 1 do
    scr.l_front.(s) <- s
  done;
  let rounds =
    run_luby_phases ~csr:cs ~scr ~value_of ~base:0 ~max_rounds ~flen:nslots
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
   compiled CSR and a scratch, not closures inside [fair_tree], so a run
   allocates only its outcome. *)

(* [gamma] synchronous rounds of flood-max over the allowed entries
   among [mask] participants; [best] starts at the own id. *)
let flood ~csr ~scr ~g mask =
  let adj_off = csr.Csr.adj_off and adj_slot = csr.Csr.adj_slot in
  let active = csr.Csr.active and ids = csr.Csr.ids in
  let front = scr.f_front and inext = scr.f_inext and touch = scr.f_touch in
  let allowed = scr.f_allowed and best = scr.f_best and obest = scr.f_obest in
  let flen = ref 0 in
  for s = 0 to Csr.nslots csr - 1 do
    if mask.(s) then begin
      best.(s) <- ids.(active.(s));
      front.(!flen) <- s;
      incr flen
    end
  done;
  let cur = ref front and nxt = ref scr.f_front2 in
  let r = ref 0 in
  while !r < g && !flen > 0 do
    incr r;
    let ntouch = ref 0 in
    for i = 0 to !flen - 1 do
      let s = (!cur).(i) in
      let b = best.(s) in
      for k = adj_off.(s) to adj_off.(s + 1) - 1 do
        if allowed.(k) then begin
          let ts = adj_slot.(k) in
          if b > best.(ts) then begin
            if not inext.(ts) then begin
              inext.(ts) <- true;
              obest.(ts) <- b;
              touch.(!ntouch) <- ts;
              incr ntouch
            end
            else if b > obest.(ts) then obest.(ts) <- b
          end
        end
      done
    done;
    let nlen = ref 0 in
    for i = 0 to !ntouch - 1 do
      let ts = touch.(i) in
      inext.(ts) <- false;
      if obest.(ts) > best.(ts) then begin
        best.(ts) <- obest.(ts);
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
   offer's (lead, depth) key is strictly better. *)
let bfs ~csr ~scr ~g mask bit_for =
  let nslots = Csr.nslots csr in
  let adj_off = csr.Csr.adj_off and adj_slot = csr.Csr.adj_slot in
  let active = csr.Csr.active and ids = csr.Csr.ids in
  let front = scr.f_front and inext = scr.f_inext and touch = scr.f_touch in
  let allowed = scr.f_allowed and best = scr.f_best in
  let lead = scr.f_lead and depth = scr.f_depth and bit = scr.f_bit in
  let olead = scr.f_olead and odepth = scr.f_odepth and obit = scr.f_obit in
  Array.fill lead 0 nslots (-1);
  Array.fill depth 0 nslots (-1);
  Array.fill bit 0 nslots false;
  let flen = ref 0 in
  for s = 0 to nslots - 1 do
    let id = ids.(active.(s)) in
    if mask.(s) && best.(s) = id then begin
      lead.(s) <- id;
      depth.(s) <- 0;
      bit.(s) <- bit_for id;
      front.(!flen) <- s;
      incr flen
    end
  done;
  let cur = ref front and nxt = ref scr.f_front2 in
  let r = ref 0 in
  while !r < g && !flen > 0 do
    incr r;
    let ntouch = ref 0 in
    for i = 0 to !flen - 1 do
      let s = (!cur).(i) in
      let ol = lead.(s) and od = depth.(s) + 1 and ob = bit.(s) in
      for k = adj_off.(s) to adj_off.(s + 1) - 1 do
        if allowed.(k) then begin
          let ts = adj_slot.(k) in
          if not inext.(ts) then begin
            inext.(ts) <- true;
            olead.(ts) <- ol;
            odepth.(ts) <- od;
            obit.(ts) <- ob;
            touch.(!ntouch) <- ts;
            incr ntouch
          end
          else if ol > olead.(ts) || (ol = olead.(ts) && od < odepth.(ts))
          then begin
            olead.(ts) <- ol;
            odepth.(ts) <- od;
            obit.(ts) <- ob
          end
        end
      done
    done;
    let nlen = ref 0 in
    for i = 0 to !ntouch - 1 do
      let ts = touch.(i) in
      inext.(ts) <- false;
      let ol = olead.(ts) and od = odepth.(ts) in
      if lead.(ts) < 0 || ol > lead.(ts) || (ol = lead.(ts) && od < depth.(ts))
      then begin
        lead.(ts) <- ol;
        depth.(ts) <- od;
        bit.(ts) <- obit.(ts);
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
  else if scr.f_lead.(s) < 0 then false
  else (scr.f_depth.(s) + if scr.f_bit.(s) then 1 else 0) mod 2 = 0

let fair_tree ?max_rounds ~gamma ~coins t =
  if gamma < 1 then invalid_arg "Kernel.fair_tree: gamma";
  let span = Prof.gstart "kernel.fair_tree" in
  let cs = t.csr in
  let n = cs.Csr.n in
  let nslots = Csr.nslots cs in
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
      let adj_off = cs.Csr.adj_off and adj_slot = cs.Csr.adj_slot in
      let active = cs.Csr.active and ids = cs.Csr.ids in
      let scr = take t.ft_free make_ft_scratch t in
      let allowed = scr.f_allowed in
      (* Stage 1: CntrlFairBipart over the uncut edges; all nodes
         participate. The cut coin is symmetric in (min id, max id), so
         the per-entry mask agrees across both directions. Each edge's
         coin is drawn from both of its entries: a once-per-edge draw
         would need a 2m mirror index in [Csr]. *)
      for s = 0 to nslots - 1 do
        let a = ids.(active.(s)) in
        let d = ref 0 in
        for k = adj_off.(s) to adj_off.(s + 1) - 1 do
          let b = ids.(active.(adj_slot.(k))) in
          let ok =
            not (if a < b then coins.cut ~u:a ~v:b else coins.cut ~u:b ~v:a)
          in
          allowed.(k) <- ok;
          if ok then incr d
        done;
        scr.f_pdeg.(s) <- !d
      done;
      flood ~csr:cs ~scr ~g scr.f_all;
      bfs ~csr:cs ~scr ~g scr.f_all coins.bit1;
      for s = 0 to nslots - 1 do
        scr.f_i1.(s) <- joined scr s
      done;
      (* Stage 2: the same pipeline on the subgraph induced by I1, over
         all edges. [pdeg] is the I1-neighbor count (the message
         protocol's [List.length i1_neighbors]). *)
      for s = 0 to nslots - 1 do
        let d = ref 0 in
        for k = adj_off.(s) to adj_off.(s + 1) - 1 do
          let t_i1 = scr.f_i1.(adj_slot.(k)) in
          allowed.(k) <- scr.f_i1.(s) && t_i1;
          if t_i1 then incr d
        done;
        scr.f_pdeg.(s) <- !d
      done;
      flood ~csr:cs ~scr ~g scr.f_i1;
      bfs ~csr:cs ~scr ~g scr.f_i1 coins.bit2;
      for s = 0 to nslots - 1 do
        scr.f_i2.(s) <- scr.f_i1.(s) && joined scr s
      done;
      (* Coverage: a node is uncovered when neither it nor any neighbor
         joined I2. *)
      for s = 0 to nslots - 1 do
        let covered = ref scr.f_i2.(s) in
        let k = ref adj_off.(s) in
        let k1 = adj_off.(s + 1) - 1 in
        while (not !covered) && !k <= k1 do
          if scr.f_i2.(adj_slot.(!k)) then covered := true;
          incr k
        done;
        scr.f_unc.(s) <- not !covered
      done;
      (* Stage 3: the pipeline once more on the uncovered nodes. *)
      for s = 0 to nslots - 1 do
        let d = ref 0 in
        for k = adj_off.(s) to adj_off.(s + 1) - 1 do
          let t_unc = scr.f_unc.(adj_slot.(k)) in
          allowed.(k) <- scr.f_unc.(s) && t_unc;
          if t_unc then incr d
        done;
        scr.f_pdeg.(s) <- !d
      done;
      flood ~csr:cs ~scr ~g scr.f_unc;
      bfs ~csr:cs ~scr ~g scr.f_unc coins.bit3;
      for s = 0 to nslots - 1 do
        scr.f_i3.(s) <- scr.f_i2.(s) || (scr.f_unc.(s) && joined scr s)
      done;
      (* Independence repair: drop both endpoints of any I3 conflict. *)
      for s = 0 to nslots - 1 do
        let conflict = ref false in
        let k = ref adj_off.(s) in
        let k1 = adj_off.(s + 1) - 1 in
        while (not !conflict) && !k <= k1 do
          if scr.f_i3.(adj_slot.(!k)) then conflict := true;
          incr k
        done;
        scr.f_i4.(s) <- scr.f_i3.(s) && not !conflict
      done;
      (* Decisions at round 6g+5: I4 joins, I4-neighbors are covered, the
         rest fall through to a Luby run among themselves. *)
      let undecided = ref nslots in
      let scrl = take t.luby_free make_luby_scratch t in
      Array.fill scrl.l_alive 0 nslots false;
      let flen = ref 0 in
      for s = 0 to nslots - 1 do
        let u = active.(s) in
        if scr.f_i4.(s) then begin
          output.(u) <- true;
          decided.(u) <- true;
          decide_round.(u) <- r_decide;
          decr undecided
        end
        else begin
          let near = ref false in
          let k = ref adj_off.(s) in
          let k1 = adj_off.(s + 1) - 1 in
          while (not !near) && !k <= k1 do
            if scr.f_i4.(adj_slot.(!k)) then near := true;
            incr k
          done;
          if !near then begin
            output.(u) <- false;
            decided.(u) <- true;
            decide_round.(u) <- r_decide;
            decr undecided
          end
          else begin
            scrl.l_alive.(s) <- true;
            scrl.l_front.(!flen) <- s;
            incr flen
          end
        end
      done;
      give t.ft_free scr;
      let rounds =
        if !undecided = 0 then r_decide
        else
          run_luby_phases ~csr:cs ~scr:scrl ~value_of:coins.luby_value
            ~base:r_decide ~max_rounds ~flen:!flen ~undecided:!undecided
            ~output ~decided ~decide_round
      in
      give t.luby_free scrl;
      rounds
    end
  in
  Prof.gstop span;
  { output; decided; decide_round; rounds }
