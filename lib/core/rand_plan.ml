module Splitmix = Mis_util.Splitmix

(* [root] is the state every key path of this plan starts from:
   [Splitmix.derive base keys] folds [step] over [keys] from
   [mix64 base], and [root] is that [mix64 base]. Each draw below is the
   fold written out for its fixed key arity over unboxed [int64]s, so a
   coin builds no key list and no [Splitmix.t]. [mix], [step] and
   [output] repeat Splitmix's arithmetic here because library modules are
   compiled without cross-module inlining; test/test_rand_plan.ml checks
   every draw against the list path. *)
type t = { root : int64 }

module Stage = struct
  let fair_rooted_tag = 1
  let fair_rooted_virtual = 2
  let fair_tree_cut = 10
  let fair_tree_s1 = 11
  let fair_tree_s2 = 12
  let fair_tree_s3 = 13
  let fair_tree_luby = 14
  let fair_bipart_radius = 20
  let fair_bipart_bit = 21
  let fair_bipart_luby = 22
  let color_mis_radius = 30
  let color_mis_choice = 31
  let color_mis_luby = 32
  let coloring_greedy = 40
  let coloring_layered = 41
  let luby_main = 50
  let centralized = 60
end

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] step h k =
  mix (Int64.logxor (Int64.mul h 0xFF51AFD7ED558CCDL) (Int64.of_int (k + 0x5851F42D)))

(* The plan's base is [Splitmix.derive seed [0x5EED]]. *)
let make s = { root = mix (step (mix (Int64.of_int s)) 0x5EED) }

(* The [i]-th output (from 1) of the stream whose state is [h]. *)
let[@inline] output h i =
  mix (Int64.add h (Int64.mul (Int64.of_int i) 0x9E3779B97F4A7C15L))

let[@inline] bits62 h i = Int64.to_int (Int64.shift_right_logical (output h i) 2)

let node_bit t ~stage ~node =
  let h = step (step (step t.root stage) 1) node in
  Int64.logand (output h 1) 1L = 1L

let edge_bit t ~stage ~u ~v =
  let a = if u <= v then u else v and b = if u <= v then v else u in
  let h = step (step (step (step t.root stage) 2) a) b in
  Int64.logand (output h 1) 1L = 1L

let node_value t ~stage ~round ~node =
  bits62 (step (step (step (step t.root stage) 3) round) node) 1

(* The same three draws with their (stage, tag) prefix folded once, for
   a caller that draws many coins of one stage. *)
let node_bits t ~stage =
  let h = step (step t.root stage) 1 in
  fun node -> Int64.logand (output (step h node) 1) 1L = 1L

let edge_bits t ~stage =
  let h = step (step t.root stage) 2 in
  fun ~u ~v ->
    let a = if u <= v then u else v and b = if u <= v then v else u in
    Int64.logand (output (step (step h a) b) 1) 1L = 1L

let node_values t ~stage =
  let h = step (step t.root stage) 3 in
  fun ~round ~node -> bits62 (step (step h round) node) 1

(* Splitmix.int: rejection sampling on 62 uniform bits. *)
let node_int t ~stage ~node ~bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  let h = step (step (step t.root stage) 4) node in
  let max62 = (1 lsl 62) - 1 in
  let limit = max62 - (max62 mod bound) in
  let i = ref 1 in
  while bits62 h !i >= limit do
    incr i
  done;
  bits62 h !i mod bound

(* Splitmix.geometric_truncated: one uniform float per step. *)
let node_radius t ~stage ~node ~p ~gamma =
  if not (p > 0. && p < 1.) then invalid_arg "Splitmix.geometric_truncated: p";
  if gamma < 0 then invalid_arg "Splitmix.geometric_truncated: gamma";
  let h = step (step (step t.root stage) 5) node in
  let k = ref 0 in
  while
    !k < gamma
    && Float.of_int (Int64.to_int (Int64.shift_right_logical (output h (!k + 1)) 11))
       *. 0x1p-53
       < p
  do
    incr k
  done;
  !k

let node_stream t ~stage ~node =
  Splitmix.of_key (step (step (step t.root stage) 6) node)
