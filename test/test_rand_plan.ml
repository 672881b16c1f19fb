(* Properties of the keyed randomness plan — the foundation of both the
   reproducibility story and the fast/distributed equivalences. *)

module Rand_plan = Fairmis.Rand_plan

let test_determinism () =
  let p1 = Rand_plan.make 42 and p2 = Rand_plan.make 42 in
  for node = 0 to 50 do
    Alcotest.(check bool) "node_bit deterministic"
      (Rand_plan.node_bit p1 ~stage:3 ~node)
      (Rand_plan.node_bit p2 ~stage:3 ~node)
  done

let test_seed_changes_everything () =
  let p1 = Rand_plan.make 1 and p2 = Rand_plan.make 2 in
  let same = ref 0 in
  let total = 200 in
  for node = 0 to total - 1 do
    if Rand_plan.node_bit p1 ~stage:1 ~node = Rand_plan.node_bit p2 ~stage:1 ~node
    then incr same
  done;
  (* Roughly half should agree by chance; all agreeing means broken. *)
  Alcotest.(check bool) "seeds differ" true (!same < total - 20 && !same > 20)

let test_edge_bit_symmetry () =
  let p = Rand_plan.make 7 in
  for u = 0 to 20 do
    for v = u + 1 to 20 do
      Alcotest.(check bool) "symmetric"
        (Rand_plan.edge_bit p ~stage:5 ~u ~v)
        (Rand_plan.edge_bit p ~stage:5 ~u:v ~v:u)
    done
  done

let prop_stage_independence =
  Helpers.qtest "rand_plan: different stages give independent bits"
    QCheck.(pair Helpers.arb_seed (pair (int_range 0 100) (int_range 0 100)))
    (fun (seed, (s1, s2)) ->
      QCheck.assume (s1 <> s2);
      let p = Rand_plan.make seed in
      (* Not equality for all nodes: check at least one disagreement over a
         span of nodes (probability of all-agree is 2^-64). *)
      let disagree = ref false in
      for node = 0 to 63 do
        if Rand_plan.node_bit p ~stage:s1 ~node
           <> Rand_plan.node_bit p ~stage:s2 ~node
        then disagree := true
      done;
      !disagree)

let test_node_value_distinct_rounds () =
  let p = Rand_plan.make 3 in
  Alcotest.(check bool) "rounds differ" true
    (Rand_plan.node_value p ~stage:1 ~round:0 ~node:5
    <> Rand_plan.node_value p ~stage:1 ~round:1 ~node:5)

let test_node_int_bounds () =
  let p = Rand_plan.make 11 in
  for node = 0 to 500 do
    let v = Rand_plan.node_int p ~stage:2 ~node ~bound:7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of bounds %d" v
  done

let test_node_radius_bounds () =
  let p = Rand_plan.make 13 in
  for node = 0 to 500 do
    let r = Rand_plan.node_radius p ~stage:2 ~node ~p:0.5 ~gamma:6 in
    if r < 0 || r > 6 then Alcotest.failf "radius out of bounds %d" r
  done

let test_bit_balance () =
  let p = Rand_plan.make 17 in
  let ones = ref 0 in
  let total = 20_000 in
  for node = 0 to total - 1 do
    if Rand_plan.node_bit p ~stage:9 ~node then incr ones
  done;
  let ratio = float_of_int !ones /. float_of_int total in
  if abs_float (ratio -. 0.5) > 0.02 then Alcotest.failf "biased bits: %f" ratio

let test_node_stream_independent_of_bits () =
  (* Drawing from a node's stream must not perturb keyed lookups. *)
  let p = Rand_plan.make 23 in
  let before = Rand_plan.node_bit p ~stage:4 ~node:9 in
  let s = Rand_plan.node_stream p ~stage:4 ~node:9 in
  ignore (Mis_util.Splitmix.bits62 s);
  Alcotest.(check bool) "unperturbed" before (Rand_plan.node_bit p ~stage:4 ~node:9)

(* The list key paths every fixed-arity draw must reproduce: the plan's
   base is [derive seed [0x5EED]] and each draw a
   [Splitmix.stream base [stage; tag; ...]] followed by one draw. *)
module Oracle = struct
  module Splitmix = Mis_util.Splitmix

  let stream seed keys =
    Splitmix.stream (Splitmix.derive (Int64.of_int seed) [ 0x5EED ]) keys

  let node_bit seed ~stage ~node = Splitmix.bool (stream seed [ stage; 1; node ])

  let edge_bit seed ~stage ~u ~v =
    Splitmix.bool (stream seed [ stage; 2; min u v; max u v ])

  let node_value seed ~stage ~round ~node =
    Splitmix.bits62 (stream seed [ stage; 3; round; node ])

  let node_int seed ~stage ~node ~bound =
    Splitmix.int (stream seed [ stage; 4; node ]) bound

  let node_radius seed ~stage ~node ~p ~gamma =
    Splitmix.geometric_truncated (stream seed [ stage; 5; node ]) ~p ~gamma

  let node_stream seed ~stage ~node = stream seed [ stage; 6; node ]
end

(* Keys from small ones to 2^40 and the int extremes, negative included. *)
let arb_key =
  QCheck.(
    oneof
      [ int_range (-100) 100; int_range (-(1 lsl 40)) (1 lsl 40);
        oneofl [ 1 lsl 40; -(1 lsl 40); max_int; min_int; 0x5EED ]; int ])

let arb_draw_case =
  QCheck.(
    pair (pair arb_key arb_key) (pair (pair arb_key arb_key) (pair arb_key arb_key)))

let prop_fixed_arity_equals_list_oracle =
  Helpers.qtest ~count:500 "rand_plan: fixed-arity draws = list key paths"
    arb_draw_case
    (fun ((seed, stage), ((round, node), (u, v))) ->
      let module S = Mis_util.Splitmix in
      let p = Rand_plan.make seed in
      (* Bounds near 2^61 make the rejection loop redraw often. *)
      let bounds = [ 1; 2; 7; 1000; (1 lsl 61) + 1; max_int ] in
      let radii = [ (0.5, 0); (0.5, 6); (0.9, 40); (1e-9, 3); (0.999, 64) ] in
      let s1 = Rand_plan.node_stream p ~stage ~node
      and s2 = Oracle.node_stream seed ~stage ~node in
      let bit = Oracle.node_bit seed ~stage ~node
      and edge = Oracle.edge_bit seed ~stage ~u ~v
      and value = Oracle.node_value seed ~stage ~round ~node in
      Rand_plan.node_bit p ~stage ~node = bit
      && Rand_plan.node_bits p ~stage node = bit
      && Rand_plan.edge_bit p ~stage ~u ~v = edge
      && Rand_plan.edge_bits p ~stage ~u ~v = edge
      && Rand_plan.node_value p ~stage ~round ~node = value
      && Rand_plan.node_values p ~stage ~round ~node = value
      && List.for_all
           (fun bound ->
             Rand_plan.node_int p ~stage ~node ~bound
             = Oracle.node_int seed ~stage ~node ~bound)
           bounds
      && List.for_all
           (fun (pr, gamma) ->
             Rand_plan.node_radius p ~stage ~node ~p:pr ~gamma
             = Oracle.node_radius seed ~stage ~node ~p:pr ~gamma)
           radii
      && List.for_all (fun _ -> S.next_int64 s1 = S.next_int64 s2) [ 1; 2; 3 ])

let test_draw_errors_unchanged () =
  let p = Rand_plan.make 3 in
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Splitmix.int: bound must be positive") (fun () ->
      ignore (Rand_plan.node_int p ~stage:1 ~node:1 ~bound:0));
  Alcotest.check_raises "p = 1" (Invalid_argument "Splitmix.geometric_truncated: p")
    (fun () -> ignore (Rand_plan.node_radius p ~stage:1 ~node:1 ~p:1. ~gamma:3));
  Alcotest.check_raises "gamma < 0"
    (Invalid_argument "Splitmix.geometric_truncated: gamma") (fun () ->
      ignore (Rand_plan.node_radius p ~stage:1 ~node:1 ~p:0.5 ~gamma:(-1)))

(* 10^4 draws of each per-node coin allocate no minor words: the int64
   chain stays unboxed, and a closure with its key prefix folded, built
   before the count starts, allocates nothing per draw. *)
let test_draws_allocate_nothing () =
  let p = Rand_plan.make 29 in
  let acc = ref 0 in
  let words f =
    let w0 = Gc.minor_words () in
    for i = 0 to 9_999 do
      acc := !acc + f i
    done;
    Gc.minor_words () -. w0
  in
  let bit b = if b then 1 else 0 in
  let values = Rand_plan.node_values p ~stage:50
  and bits = Rand_plan.node_bits p ~stage:11
  and edges = Rand_plan.edge_bits p ~stage:10 in
  List.iter
    (fun (name, f) -> Alcotest.(check (float 0.)) name 0. (words f))
    [ ("node_value", fun i -> Rand_plan.node_value p ~stage:50 ~round:3 ~node:i);
      ("node_bit", fun i -> bit (Rand_plan.node_bit p ~stage:11 ~node:i));
      ("edge_bit", fun i -> bit (Rand_plan.edge_bit p ~stage:10 ~u:i ~v:(i / 2)));
      ("node_values", fun i -> values ~round:3 ~node:i);
      ("node_bits", fun i -> bit (bits i));
      ("edge_bits", fun i -> bit (edges ~u:i ~v:(i / 2))) ];
  ignore (Sys.opaque_identity !acc)

(* A warm kernel trial allocates its three n-word outcome arrays and a
   constant number of small blocks (coin closures, the outcome record),
   however many coins it draws. Minor words count every allocation
   exactly at n = 121, where the outcome arrays are minor blocks; at
   n = 3280 they go straight to the major heap, and the minor count is
   the small blocks alone. On the buffered path, a trial into an outcome
   the caller reuses (as [Runners.measure] does, one per domain), the
   bound is a constant, 64 words: Luby reads 13 and FairTree 50, and 18
   and 55 through the buffered runner, which also builds the trial's
   plan. *)
let test_kernel_trial_allocates_outcome_only () =
  List.iter
    (fun depth ->
      let g = Mis_workload.Trees.complete_kary ~branch:3 ~depth in
      let view = Mis_graph.View.full g in
      let n = Mis_graph.View.n view in
      let kernel = Mis_sim.Kernel.create view in
      let plan = Rand_plan.make 7 in
      let into = Mis_sim.Kernel.make_outcome kernel in
      let trial (r : Mis_exp.Runners.t) =
        Option.get r.Mis_exp.Runners.buffered view ()
      in
      let luby_trial = trial Mis_exp.Runners.luby
      and fair_tree_trial = trial Mis_exp.Runners.fair_tree in
      let fresh = float_of_int ((3 * n) + 64) in
      List.iter
        (fun (name, bound, run) ->
          ignore (run ());
          let w0 = Gc.minor_words () in
          ignore (Sys.opaque_identity (run ()));
          let w = Gc.minor_words () -. w0 in
          if w > bound then
            Alcotest.failf "%s, n = %d: %.0f words > %.0f" name n w bound)
        [ ("luby", fresh, fun () -> ignore (Fairmis.Luby.run_kernel_on kernel plan));
          ( "fairtree",
            fresh,
            fun () ->
              ignore (Fairmis.Fair_tree_distributed.run_kernel_on kernel plan) );
          ( "luby into",
            64.,
            fun () -> ignore (Fairmis.Luby.run_kernel_on ~into kernel plan) );
          ( "fairtree into",
            64.,
            fun () ->
              ignore
                (Fairmis.Fair_tree_distributed.run_kernel_on ~into kernel plan)
          );
          ("luby buffered runner", 64., fun () -> ignore (luby_trial ~seed:7));
          ( "fairtree buffered runner",
            64.,
            fun () -> ignore (fair_tree_trial ~seed:7) ) ])
    [ 4; 7 ]

let suite =
  [ ( "core.rand_plan",
      [ Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_everything;
        Alcotest.test_case "edge bit symmetry" `Quick test_edge_bit_symmetry;
        prop_stage_independence;
        Alcotest.test_case "distinct rounds" `Quick test_node_value_distinct_rounds;
        Alcotest.test_case "node int bounds" `Quick test_node_int_bounds;
        Alcotest.test_case "node radius bounds" `Quick test_node_radius_bounds;
        Alcotest.test_case "bit balance" `Quick test_bit_balance;
        Alcotest.test_case "streams don't perturb lookups" `Quick
          test_node_stream_independent_of_bits;
        prop_fixed_arity_equals_list_oracle;
        Alcotest.test_case "draw errors unchanged" `Quick test_draw_errors_unchanged;
        Alcotest.test_case "draws allocate nothing" `Quick
          test_draws_allocate_nothing;
        Alcotest.test_case "kernel trial allocates its outcome only" `Quick
          test_kernel_trial_allocates_outcome_only ] ) ]
