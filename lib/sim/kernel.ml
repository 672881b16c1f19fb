module Prof = Mis_obs.Prof
module View = Mis_graph.View
module Graph = Mis_graph.Graph

(* Data-parallel execution backend: the core programs expressed as flat
   array sweeps over the compiled CSR instead of message passing — the
   omega_h / GraphBLAS MIS style. No inbox is ever allocated, and, as
   in omega_h's [indset], the caller may own the state arrays: a run
   [~into] an outcome the caller reuses allocates only the option
   carrying it and the free-list cell it gives its scratch back on (5
   words, by Gc.minor_words at n = 121). A run without [~into]
   allocates its outcome as well (three n-word arrays and the record, 9
   words beyond the arrays for either program). The coins come from
   [Rand_plan]'s prefix-folded closures, built once per trial (13 and
   50 words for a whole [run_kernel_on] into an outcome) and allocating
   nothing per draw, so a verified trial stays within 3n + 64 words,
   and within 64 into a reused outcome (test/test_rand_plan.ml).
   Resident, a kernel run one run at a time holds 7.1 words per node of
   a tree after either program or both (test/test_kernel.ml bounds it,
   and checks that FairTree adds nothing on a tree): it keeps no
   reference to its view, and under the identity ids the slot-to-id
   array is the slot-to-index array itself.

   The contract with [Runtime.Engine] is bit-identity on a perfect
   network: same outputs, same per-node decision round, same [rounds]
   count (including the [max_rounds] cutoff behavior).

   Slots are numbered in BFS order (see [create]), not in the engine's
   index order, because no result depends on slot order: Luby's winners
   compare (value, id); FairTree's components, their max id, the BFS
   depths, the cut coin (drawn on the id pair) and the per-id bits are
   functions of sets and ids; coverage and the I4 repair are set
   operations; every round is synchronous; and outcomes are written by
   node index. A test relabels the graph and checks the outcome moves
   with it. BFS order keeps a node's neighbours a few slots away, so on
   a 10^6-node attachment tree, whose nodes hang off uniform earlier
   ones, a FairTree run reads from cache what index order scatters. The
   same pass puts each slot's BFS parent first in its adjacency when the
   view is a forest ([forest]).

   Luby runs its phases as frontier sweeps. FairTree's stages are each
   CntrlFairBipart: [gamma] synchronous rounds of flood-max over the
   stage's allowed edges, then [gamma] rounds of BFS from the flood's
   leaders. When every node of a component of those edges lies within
   [gamma] hops of its max id, the 2·gamma rounds put that max on every
   node as the only leader and reach every node at its true distance.
   On a forest, whose components are subtrees, the kernel computes that
   result in two forward slot sweeps per stage (see [forest_join]) and
   restarts the trial on the queue path when a component may reach
   farther. The queue path, which any graph takes, resolves a stage one
   component at a time: two queue traversals (find the max, BFS from it)
   give exactly the rounds' result. Only a component with a farther node
   runs the round simulation, which stays exact for any [gamma]:

   - flood-max is monotone and idempotent, so a changed-node frontier
     with offers staged against the previous round's values reproduces
     each synchronous round (an unchanged sender's offer was already
     folded the round before);
   - BFS adoption only ever improves a node's (lead, depth) key, and
     equal keys carry equal bits (the bit travels unchanged from the
     lead), so the same staging argument applies;
   - an empty frontier is a fixpoint, so breaking early is equivalent to
     running the remaining no-op rounds — but a stage never runs *more*
     than its [gamma] rounds, because the flood may not have converged.

   With the default gamma no component of the Table I trees needs the
   simulation ([outcome.simulated] counts the nodes that do). *)

type outcome = {
  output : bool array;
  decided : bool array;
  decide_round : int array;
  mutable rounds : int;
  mutable simulated : int;
}

let ceil_log2 = Mis_util.Ids.ceil_log2

let luby_max_rounds n = 64 + (64 * ceil_log2 (max n 2))

(* One scratch serves both programs. Every array is indexed by slot
   except [allowed], one byte (0 or 1) per CSR entry, which only the
   queue path of FairTree reads.

   Luby keeps each frontier slot's value in [best], the frontier in
   [depth], a phase's winners in [touch], and one alive byte (0 or 1)
   per slot in [flags].

   FairTree's forest sweeps keep each slot's component root in [best],
   its depth below the root in [depth] and a root's max and bit in
   [touch]. The queue path's [resolve] keeps a component's queue in
   [touch] and its depths in [depth]. Per-slot flags are the bits of one
   byte in [flags]. In the round simulation [best] holds a stage's flood
   value and then, from BFS init on, its BFS lead. [offer] stages the
   current round's incoming flood value or BFS lead, [odepth] the BFS
   depth ([inext] marks staged slots, reset on apply, [touch] lists
   them), and [front] / [front2] hold the round's frontiers. The
   fallback Luby runs in the same scratch once the stages are done with
   it.

   Only the four slot arrays are allocated with the scratch. [allowed]
   is allocated on the scratch's first FairTree run on the queue path
   and the four simulation arrays on the first component that runs the
   round simulation, so a Luby-only kernel, or one whose FairTree runs
   all took the forest path, holds neither. *)
type scratch = {
  best : int array;
  depth : int array;
  touch : int array;
  flags : Bytes.t;
  mutable allowed : Bytes.t;
  mutable offer : int array;
  mutable odepth : int array;
  mutable front : int array;
  mutable front2 : int array;
}

(* The [flags] bits in a FairTree run: a node's BFS parity bit and its
   staged offer's, the staged mark, the stage sets I1, I2, uncovered and
   stage 3's joiners, and [sim], which marks the current stage's
   components that run the round simulation. *)
let bit = 1 and obit = 2 and inext = 4 and i1 = 8
let i2 = 16 and unc = 32 and i3 = 64 and sim = 128

let[@inline] has flags s f = Bytes.get_uint8 flags s land f <> 0

let[@inline] put flags s f b =
  let x = Bytes.get_uint8 flags s in
  Bytes.set_uint8 flags s (if b then x lor f else x land lnot f)

(* Scratch lives on one lock-free free list, so a compiled kernel can be
   shared by every domain of a trial pool: a run takes a scratch
   (allocating one only when the list is empty) and gives it back when
   it ends. The number of scratches is therefore bounded by the number
   of concurrent runs, not by the number of runs. A run that raises
   drops its scratch instead of returning it half-updated. The CAS on
   the list head is ABA-safe because every push allocates a fresh cons
   cell.

   A kernel keeps the slot-to-index map [active], [sid], each slot's
   program-visible id (the very array [active] under the identity ids),
   and the CSR adjacency over slots; [nslots] slots are in use, and
   [forest] says the view has no cycle (so each slot's first entry is
   its BFS parent, or a child at a BFS root). Only [reload] writes the
   mutable fields, on a kernel from [of_slots] ([resident], never a
   [forest]), whose [active] is the identity and may run past
   [nslots]. *)
type t = {
  mutable n : int;
  mutable nslots : int;
  mutable active : int array;
  mutable sid : int array;
  mutable adj_off : int array;
  mutable adj_slot : int array;
  resident : bool;
  forest : bool;
  free : scratch list Atomic.t;
}

let[@inline] on mask i = match mask with None -> true | Some a -> a.(i)

(* The view's adjacency filter on graph CSR entry [i], reading
   [adj_edge] only under an edge mask. [Csr] has the same two lines; a
   call into another module is not inlined in the default (opaque)
   build, and this one runs once per CSR entry. *)
let[@inline] usable ~adj ~adj_edge ~nodes ~edges i =
  (match edges with None -> true | Some m -> m.(adj_edge.(i)))
  && on nodes adj.(i)

(* BFS numbering: one traversal from each still unnumbered active node
   in index order, with [active] as the queue. A slot's neighbours are
   written when it is dequeued, and a neighbour seen for the first time
   is numbered right there, so one pass numbers the slots and fills the
   adjacency; a masked view first counts its slots and usable entries.
   The first neighbour numbered before the slot itself is swapped to the
   front of its entries: on a forest, whose BFS tree is the whole graph,
   that is the slot's BFS parent, and no other neighbour is numbered
   earlier. A view is a forest exactly when its entries number twice its
   slots less its BFS roots. *)
let create ?ids view =
  let n = View.n view in
  let g = View.graph view in
  let off = Graph.csr_off g and adj = Graph.csr_adj g in
  let adj_edge = Graph.csr_adj_edge g in
  let nodes = View.node_mask view and edges = View.edge_mask view in
  let nslots, nentries =
    match (nodes, edges) with
    | None, None -> (n, off.(n))
    | _ ->
      let k = ref 0 and m = ref 0 in
      for u = 0 to n - 1 do
        if on nodes u then begin
          incr k;
          for i = off.(u) to off.(u + 1) - 1 do
            if usable ~adj ~adj_edge ~nodes ~edges i then incr m
          done
        end
      done;
      (!k, !m)
  in
  let slot = Array.make n (-1) in
  let active = Array.make nslots 0 in
  let adj_off = Array.make (nslots + 1) 0 in
  let adj_slot = Array.make nentries 0 in
  let head = ref 0 and next = ref 0 and fill = ref 0 and roots = ref 0 in
  for u0 = 0 to n - 1 do
    if on nodes u0 && slot.(u0) < 0 then begin
      slot.(u0) <- !next;
      active.(!next) <- u0;
      incr next;
      incr roots;
      while !head < !next do
        let u = active.(!head) in
        let first = !fill and placed = ref false in
        for i = off.(u) to off.(u + 1) - 1 do
          if usable ~adj ~adj_edge ~nodes ~edges i then begin
            let v = adj.(i) in
            let w = slot.(v) in
            if w < 0 then begin
              slot.(v) <- !next;
              active.(!next) <- v;
              adj_slot.(!fill) <- !next;
              incr next
            end
            else if w < !head && not !placed then begin
              placed := true;
              adj_slot.(!fill) <- adj_slot.(first);
              adj_slot.(first) <- w
            end
            else adj_slot.(!fill) <- w;
            incr fill
          end
        done;
        incr head;
        adj_off.(!head) <- !fill
      done
    end
  done;
  let sid =
    match ids with
    | None -> active
    | Some ids ->
      Csr.check_ids ~n ids active;
      Array.map (fun u -> ids.(u)) active
  in
  { n; nslots; active; sid; adj_off; adj_slot; resident = false;
    forest = nentries = 2 * (nslots - !roots); free = Atomic.make [] }

(* A caller that already holds a slot CSR hands it over as is: slot [s]
   is node index [s]. One pass checks the offsets and entries, and the
   ids' strict ascent, which makes them distinct without a table.
   Returns the slot count. *)
let check_slots ~ids ~off ~adj =
  let n = Array.length ids in
  let fail what = invalid_arg ("Kernel.of_slots: " ^ what) in
  if Array.length off <= n || off.(0) <> 0 then fail "offsets";
  for s = 0 to n - 1 do
    if s > 0 && ids.(s) <= ids.(s - 1) then fail "ids not ascending";
    if off.(s + 1) < off.(s) || off.(s + 1) > Array.length adj then
      fail "offsets";
    for i = off.(s) to off.(s + 1) - 1 do
      if adj.(i) < 0 || adj.(i) >= n || adj.(i) = s then fail "adjacency entry"
    done
  done;
  n

let of_slots ~ids ~off ~adj =
  let n = check_slots ~ids ~off ~adj in
  { n; nslots = n; active = Array.init n Fun.id; sid = ids; adj_off = off;
    adj_slot = adj; resident = true; forest = false; free = Atomic.make [] }

(* The identity map grows by doubling, so a kernel reloaded with ever
   larger regions reallocates it O(log n) times; the scratch follows its
   length (see [take]). *)
let reload t ~ids ~off ~adj =
  if not t.resident then invalid_arg "Kernel.reload: not from of_slots";
  let n = check_slots ~ids ~off ~adj in
  if Array.length t.active < n then
    t.active <- Array.init (max n (2 * Array.length t.active)) Fun.id;
  t.n <- n;
  t.nslots <- n;
  t.sid <- ids;
  t.adj_off <- off;
  t.adj_slot <- adj

let n t = t.n

let make_scratch t =
  let k = Array.length t.active in
  { best = Array.make k 0; depth = Array.make k 0; touch = Array.make k 0;
    flags = Bytes.make k '\000'; allowed = Bytes.empty; offer = [||];
    odepth = [||]; front = [||]; front2 = [||] }

(* A scratch from the free list, or a new one. Only a reloaded kernel
   can outgrow a scratch; one that is too small is dropped. *)
let rec take t =
  match Atomic.get t.free with
  | [] -> make_scratch t
  | s :: rest as cur ->
    if not (Atomic.compare_and_set t.free cur rest) then take t
    else if Array.length s.best < t.nslots then make_scratch t
    else s

let rec give t s =
  let cur = Atomic.get t.free in
  if not (Atomic.compare_and_set t.free cur (s :: cur)) then give t s

(* FairTree's per-entry bytes, sized by the entries in use: a slot CSR
   handed over by a caller may run long. *)
let ensure_allowed t scr =
  let m = t.adj_off.(t.nslots) in
  if Bytes.length scr.allowed < m then scr.allowed <- Bytes.make m '\000'

let ensure_sim scr =
  let k = Array.length scr.best in
  if Array.length scr.offer < k then begin
    scr.offer <- Array.make k 0;
    scr.odepth <- Array.make k 0;
    scr.front <- Array.make k 0;
    scr.front2 <- Array.make k 0
  end

let make_outcome t =
  { output = Array.make t.n false; decided = Array.make t.n false;
    decide_round = Array.make t.n (-1); rounds = 0; simulated = 0 }

(* The outcome a run writes: [into], reset over the kernel's node
   indices, or a fresh one. *)
let start t into =
  match into with
  | None -> make_outcome t
  | Some o ->
    let n = t.n in
    if Array.length o.output < n || Array.length o.decided < n
       || Array.length o.decide_round < n
    then invalid_arg "Kernel: outcome shorter than the kernel";
    Array.fill o.output 0 n false;
    Array.fill o.decided 0 n false;
    Array.fill o.decide_round 0 n (-1);
    o.rounds <- 0;
    o.simulated <- 0;
    o

(* One Luby execution over the frontier [scr.depth.(0 .. flen-1)]
   (slots, in slot order; [scr.flags] must hold 1 on exactly those
   slots and 0 elsewhere).
   Phase [p] of the message protocol spans rounds [base + 3p ..
   base + 3p + 2]: values broadcast at [base + 3p], winners decide at
   [base + 3p + 1], covered neighbors at [base + 3p + 2]. Decisions past
   [max_rounds] do not happen and the run reports [rounds = max_rounds],
   mirroring the engine's cutoff. Returns the last executed round. *)
let run_luby_phases t ~scr ~value_of ~base ~max_rounds ~flen:flen0
    ~undecided:undec0 ~output ~decided ~decide_round =
  let adj_off = t.adj_off and adj_slot = t.adj_slot in
  let active = t.active and sid = t.sid in
  let alive = scr.flags and value = scr.best in
  let front = scr.depth and winners = scr.touch in
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
        value.(s) <- value_of ~round:p ~node:sid.(s)
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

let luby ?max_rounds ?into ~value_of t =
  let span = Prof.gstart "kernel.luby" in
  let nslots = t.nslots in
  let max_rounds =
    match max_rounds with Some r -> r | None -> luby_max_rounds t.n
  in
  let o = start t into in
  let scr = take t in
  Bytes.fill scr.flags 0 nslots '\001';
  for s = 0 to nslots - 1 do
    scr.depth.(s) <- s
  done;
  o.rounds <-
    run_luby_phases t ~scr ~value_of ~base:0 ~max_rounds ~flen:nslots
      ~undecided:nslots ~output:o.output ~decided:o.decided
      ~decide_round:o.decide_round;
  give t scr;
  Prof.gstop span;
  o

type fair_tree_coins = {
  cut : u:int -> v:int -> bool;
  bit1 : int -> bool;
  bit2 : int -> bool;
  bit3 : int -> bool;
  luby_value : round:int -> node:int -> int;
}

(* The FairTree stage sweeps below are top-level functions over the
   kernel and a scratch, not closures inside [fair_tree], so a warm run
   allocates no more than a Luby run. *)

(* One stage's flood and BFS, one component of its allowed entries at a
   time. A stage's participants are the slots whose [flags] carry the
   [mask] bit, or every slot when [mask = 0]; they enter with depth -1.
   Stage 1 ([mask = 0]) allows the entries whose edge the cut coin
   keeps, the others the entries between two participants; the first
   traversal of a component writes its entries into [allowed]. In
   stage 1 it keeps each node's discoverer in [best], so the coin of a
   tree edge is drawn at one end only.

   The first queue traversal lists the component in [touch] (depth -2)
   and finds its max id [m]. A component of one node (no participant
   neighbour) joins right there, gets [out] and draws no bit. Otherwise
   the second traversal, a BFS from [m], writes each depth. When every
   node lies within [g] hops of [m], [g] synchronous flood rounds put
   [m] on every node, [m] is the only leader, and [g] BFS rounds reach
   every node at its true distance with [m]'s bit: the node joins when
   its depth plus that bit is even, and gets [out]. A component with a
   farther node instead gets [sim], its nodes start the flood at their
   own id, listed in [front], and the exact round simulation ([flood],
   [bfs]) decides them. Returns how many participants it simulated. *)
let resolve t ~scr ~g ~coins mask ~out bit_for =
  let adj_off = t.adj_off and adj_slot = t.adj_slot and sid = t.sid in
  let flags = scr.flags and allowed = scr.allowed in
  let best = scr.best and depth = scr.depth in
  let queue = scr.touch in
  let nsim = ref 0 in
  for s0 = 0 to t.nslots - 1 do
    if (mask = 0 || has flags s0 mask) && depth.(s0) = -1 then begin
      depth.(s0) <- -2;
      best.(s0) <- -1;
      queue.(0) <- s0;
      let len = ref 1 and head = ref 0 and ms = ref s0 in
      while !head < !len do
        let s = queue.(!head) in
        incr head;
        let a = sid.(s) in
        if a > sid.(!ms) then ms := s;
        for k = adj_off.(s) to adj_off.(s + 1) - 1 do
          let ts = adj_slot.(k) in
          let ok =
            if mask <> 0 then has flags ts mask
            else if depth.(ts) >= 0 || ts = best.(s) then
              (* The edge was drawn from its other end: cut when that end
                 lies in an earlier component, kept when it found [s]. *)
              depth.(ts) < 0
            else begin
              let b = sid.(ts) in
              not (if a < b then coins.cut ~u:a ~v:b else coins.cut ~u:b ~v:a)
            end
          in
          Bytes.set_uint8 allowed k (Bool.to_int ok);
          if ok && depth.(ts) = -1 then begin
            depth.(ts) <- -2;
            best.(ts) <- s;
            queue.(!len) <- ts;
            incr len
          end
        done
      done;
      let len = !len in
      if len = 1 then begin
        depth.(s0) <- 0;
        put flags s0 out true
      end
      else begin
        let m = !ms in
        depth.(m) <- 0;
        queue.(0) <- m;
        head := 0;
        let tail = ref 1 and far = ref 0 in
        while !head < !tail do
          let s = queue.(!head) in
          incr head;
          let d = depth.(s) + 1 in
          for k = adj_off.(s) to adj_off.(s + 1) - 1 do
            let ts = adj_slot.(k) in
            if Bytes.get_uint8 allowed k <> 0 && depth.(ts) = -2 then begin
              depth.(ts) <- d;
              far := d;
              queue.(!tail) <- ts;
              incr tail
            end
          done
        done;
        if !far <= g then begin
          let b = Bool.to_int (bit_for sid.(m)) in
          for i = 0 to len - 1 do
            let s = queue.(i) in
            if (depth.(s) + b) land 1 = 0 then put flags s out true
          done
        end
        else begin
          ensure_sim scr;
          let front = scr.front in
          for i = 0 to len - 1 do
            let s = queue.(i) in
            put flags s sim true;
            best.(s) <- sid.(s);
            front.(!nsim + i) <- s
          done;
          nsim := !nsim + len
        end
      end
    end
  done;
  !nsim

(* [gamma] synchronous rounds of flood-max over the allowed entries from
   the frontier [scr.front.(0 .. flen-1)], whose [best] starts at the
   own id. *)
let flood t ~scr ~g ~flen:flen0 =
  let adj_off = t.adj_off and adj_slot = t.adj_slot in
  let flags = scr.flags and touch = scr.touch in
  let allowed = scr.allowed and best = scr.best and offer = scr.offer in
  let flen = ref flen0 in
  let cur = ref scr.front and nxt = ref scr.front2 in
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

(* [gamma] synchronous rounds of BFS adoption from the leaders among the
   [sim] slots (those whose flood converged on their own id). A node
   adopts the offer (lead, depth + 1, bit) when it has no lead yet or the
   offer's (lead, depth) key is strictly better. Init touches only the
   [sim] slots, reading each one's flood value before it writes the
   slot's lead over it; a slot without a lead keeps a stale depth and
   bit, which nothing reads. *)
let bfs t ~scr ~g bit_for =
  let adj_off = t.adj_off and adj_slot = t.adj_slot and sid = t.sid in
  let front = scr.front and flags = scr.flags and touch = scr.touch in
  let allowed = scr.allowed and lead = scr.best and depth = scr.depth in
  let olead = scr.offer and odepth = scr.odepth in
  let flen = ref 0 in
  for s = 0 to t.nslots - 1 do
    if has flags s sim then begin
      let id = sid.(s) in
      if lead.(s) = id then begin
        depth.(s) <- 0;
        put flags s bit (bit_for id);
        front.(!flen) <- s;
        incr flen
      end
      else lead.(s) <- -1
    end
  done;
  let cur = ref front and nxt = ref scr.front2 in
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

(* A whole stage: [resolve], then the round simulation of the components
   it marked, whose members join when they have a lead and their depth
   plus bit is even (a simulated component has no single node). Returns
   the participants simulated. *)
let stage t ~scr ~g ~coins mask ~out bit_for =
  let nsim = resolve t ~scr ~g ~coins mask ~out bit_for in
  if nsim > 0 then begin
    let flags = scr.flags in
    flood t ~scr ~g ~flen:nsim;
    bfs t ~scr ~g bit_for;
    for s = 0 to t.nslots - 1 do
      if has flags s sim then begin
        put flags s sim false;
        if scr.best.(s) >= 0
           && (scr.depth.(s) + Bool.to_int (has flags s bit)) land 1 = 0
        then put flags s out true
      end
    done
  end;
  nsim

(* The forest path. On a forest kernel slot [s]'s first entry is its
   BFS parent, numbered before it; [parent] returns [s] itself at a BFS
   root. Every component a stage builds is a subtree, its root is its
   first slot in BFS order, and the tree distance of [u] and [v] has the
   parity of their depths below any common ancestor. So two forward
   sweeps replace the queues of [resolve]:

   - [forest_join] puts each slot under its parent's root when the edge
     is allowed: uncut in stage 1 ([mask = 0]), between two participants
     otherwise. It keeps the root in [best] and the depth below it in
     [depth], and, at the root, [2·m + multi] in [touch]: the max-id
     slot [m] so far and whether a second node joined. A non-participant
     is a root of its own.
   - [forest_decide] draws one bit per multi-node component at its root,
     rewriting the root's word to [4·depth(m) + 2·parity + 1], where the
     parity is that of [depth(m)] plus the bit; a member then joins [out]
     when its depth plus that parity is even, as a single node does.

   Every node lies within [depth(m) + depth] hops of [m], so when no
   member's sum exceeds [g], [g] flood rounds put [m] on every node and
   [g] BFS rounds reach each at its true distance: the stage is exactly
   what [resolve] computes. Otherwise [forest_decide] returns false and
   the trial starts over on the queue path, which is exact for any
   [g]. Updates that coins decide are arithmetic selects; only a
   multi-node root and a [far] sum branch. *)
let[@inline] parent t s =
  let k = t.adj_off.(s) in
  if k < t.adj_off.(s + 1) && t.adj_slot.(k) < s then t.adj_slot.(k) else s

let forest_join t ~scr ~coins mask =
  let sid = t.sid and flags = scr.flags in
  let root = scr.best and depth = scr.depth and top = scr.touch in
  for s = 0 to t.nslots - 1 do
    let p = parent t s in
    let j =
      if mask = 0 then
        if p = s then 0
        else begin
          let a = sid.(p) and b = sid.(s) in
          let lo = b + (Bool.to_int (a < b) * (a - b)) in
          Bool.to_int (not (coins.cut ~u:lo ~v:(a + b - lo)))
        end
      else
        Bool.to_int (p < s)
        land Bool.to_int
               (Bytes.get_uint8 flags s land Bytes.get_uint8 flags p land mask
               <> 0)
    in
    let r = s + (j * (root.(p) - s)) in
    root.(s) <- r;
    depth.(s) <- j * (depth.(p) + 1);
    let m0 = s + (j * ((top.(r) lsr 1) - s)) in
    let m = m0 + (Bool.to_int (sid.(s) > sid.(m0)) * (s - m0)) in
    top.(r) <- (2 * m) + j
  done

let forest_decide t ~scr ~g mask ~out bit_for =
  let sid = t.sid and flags = scr.flags in
  let root = scr.best and depth = scr.depth and top = scr.touch in
  let far = ref false in
  for s = 0 to t.nslots - 1 do
    let r = root.(s) in
    let x = top.(r) in
    let x =
      if r = s && x land 1 = 1 then begin
        let m = x lsr 1 in
        let dm = depth.(m) in
        let y =
          (4 * dm) + (((dm + Bool.to_int (bit_for sid.(m))) land 1) * 2) + 1
        in
        top.(s) <- y;
        y
      end
      else x
    in
    let multi = x land 1 and d = depth.(s) in
    if d + (multi * (x lsr 2)) > g then far := true;
    let f = Bytes.get_uint8 flags s in
    let part = Bool.to_int (mask = 0 || f land mask <> 0) in
    let even = 1 - ((d + (multi * (x lsr 1))) land 1) in
    Bytes.set_uint8 flags s (f lor (part * even * out))
  done;
  not !far

(* The three stages on a forest kernel, coverage swept from child to
   parent between stages 2 and 3: a node is uncovered when neither it
   nor its parent is in I2, until a child in I2 clears it. False when a
   stage has a node beyond [g] of its component's max. *)
let forest_stages t ~scr ~g ~coins =
  let flags = scr.flags in
  Bytes.fill flags 0 t.nslots '\000';
  forest_join t ~scr ~coins 0;
  forest_decide t ~scr ~g 0 ~out:i1 coins.bit1
  && begin
    forest_join t ~scr ~coins i1;
    forest_decide t ~scr ~g i1 ~out:i2 coins.bit2
  end
  && begin
    for s = 0 to t.nslots - 1 do
      let p = parent t s in
      let f = Bytes.get_uint8 flags s in
      let bare = Bool.to_int ((f lor Bytes.get_uint8 flags p) land i2 = 0) in
      let f = f lor (bare * unc) in
      Bytes.set_uint8 flags s f;
      Bytes.set_uint8 flags p
        (Bytes.get_uint8 flags p land lnot (Bool.to_int (f land i2 <> 0) * unc))
    done;
    forest_join t ~scr ~coins unc;
    forest_decide t ~scr ~g unc ~out:i3 coins.bit3
  end

(* The forest path's decisions. Its stages leave nothing for the I4
   repair or the fallback Luby to do: within a stage component adjacent
   nodes are parent and child, their depths differ by one and at most
   one of them joins, so I2 is independent, stage 3's joiners are too,
   and no uncovered node has a neighbour in I2. And every node has a
   neighbour in I3 or lies in it: I2 covers all but stage 3's
   participants, and a participant that does not join has a joining
   neighbour, one hop nearer its component's max or, at the max, one hop
   away. So I4 = I3 and every node decides at [r_decide]. *)
let forest_write t ~scr ~r_decide o =
  let flags = scr.flags and active = t.active in
  for s = 0 to t.nslots - 1 do
    let u = active.(s) in
    o.output.(u) <- has flags s (i2 lor i3);
    o.decided.(u) <- true;
    o.decide_round.(u) <- r_decide
  done

(* Whether some neighbor of slot [s] carries one of the flags [f]. *)
let[@inline] near t flags f s =
  let hit = ref false in
  let k = ref t.adj_off.(s) in
  let k1 = t.adj_off.(s + 1) - 1 in
  while (not !hit) && !k <= k1 do
    if has flags t.adj_slot.(!k) f then hit := true;
    incr k
  done;
  !hit

(* The three stages, the I4 repair and the fallback Luby on the queue
   path, which any graph and any [g] take. Returns the last round. *)
let queue_trial t ~scr ~g ~coins ~max_rounds ~r_decide o =
  let nslots = t.nslots in
  let output = o.output and decided = o.decided in
  let decide_round = o.decide_round in
  let adj_off = t.adj_off and adj_slot = t.adj_slot and active = t.active in
  ensure_allowed t scr;
  let flags = scr.flags and depth = scr.depth in
  (* Stage 1: CntrlFairBipart over the uncut edges; every slot
     participates. *)
  Bytes.fill flags 0 nslots '\000';
  Array.fill depth 0 nslots (-1);
  let sim1 = stage t ~scr ~g ~coins 0 ~out:i1 coins.bit1 in
  (* Stage 2: the same pipeline on the subgraph induced by I1, over all
     edges. *)
  for s = 0 to nslots - 1 do
    if has flags s i1 then depth.(s) <- -1
  done;
  let sim2 = stage t ~scr ~g ~coins i1 ~out:i2 coins.bit2 in
  (* Coverage, marked outward from I2: a node is uncovered when neither
     it nor any neighbor joined I2. *)
  for s = 0 to nslots - 1 do
    if not (has flags s i2) then begin
      put flags s unc true;
      depth.(s) <- -1
    end
  done;
  for s = 0 to nslots - 1 do
    if has flags s i2 then
      for k = adj_off.(s) to adj_off.(s + 1) - 1 do
        put flags adj_slot.(k) unc false
      done
  done;
  (* Stage 3: the pipeline once more on the uncovered nodes; its joiners
     and I2 make I3. *)
  let sim3 = stage t ~scr ~g ~coins unc ~out:i3 coins.bit3 in
  o.simulated <- sim1 + sim2 + sim3;
  (* Decisions at round 6g+5. Independence repair: I4 is I3 without
     both endpoints of any I3 conflict. I4 joins and decides its
     neighbors out; the rest fall through to a Luby run among
     themselves. *)
  let in3 = i2 lor i3 in
  let undecided = ref nslots in
  for s = 0 to nslots - 1 do
    if has flags s in3 && not (near t flags in3 s) then begin
      let u = active.(s) in
      output.(u) <- true;
      decided.(u) <- true;
      decide_round.(u) <- r_decide;
      decr undecided;
      for k = adj_off.(s) to adj_off.(s + 1) - 1 do
        let v = active.(adj_slot.(k)) in
        if not decided.(v) then begin
          decided.(v) <- true;
          decide_round.(v) <- r_decide;
          decr undecided
        end
      done
    end
  done;
  (* The fallback Luby takes over the scratch: alive bytes in [flags],
     the frontier in [depth]. *)
  if !undecided = 0 then r_decide
  else begin
    Bytes.fill flags 0 nslots '\000';
    let flen = ref 0 in
    for s = 0 to nslots - 1 do
      if not decided.(active.(s)) then begin
        Bytes.set_uint8 flags s 1;
        depth.(!flen) <- s;
        incr flen
      end
    done;
    run_luby_phases t ~scr ~value_of:coins.luby_value ~base:r_decide
      ~max_rounds ~flen:!flen ~undecided:!undecided ~output ~decided
      ~decide_round
  end

let fair_tree ?max_rounds ?into ~gamma ~coins t =
  if gamma < 1 then invalid_arg "Kernel.fair_tree: gamma";
  let span = Prof.gstart "kernel.fair_tree" in
  let nslots = t.nslots in
  let g = gamma in
  let max_rounds =
    match max_rounds with
    | Some r -> r
    | None -> (6 * g) + 6 + (64 * (ceil_log2 (max t.n 2) + 2))
  in
  let o = start t into in
  let r_decide = (6 * g) + 5 in
  o.rounds <-
    (if nslots = 0 then 0
    else if r_decide > max_rounds then
      (* The first decision round lies past the cutoff: the engine runs
         [max_rounds] rounds of protocol and gives up undecided. *)
      max_rounds
    else begin
      let scr = take t in
      let rounds =
        if t.forest && forest_stages t ~scr ~g ~coins then begin
          forest_write t ~scr ~r_decide o;
          r_decide
        end
        else queue_trial t ~scr ~g ~coins ~max_rounds ~r_decide o
      in
      give t scr;
      rounds
    end);
  Prof.gstop span;
  o
