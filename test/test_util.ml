(* Unit and property tests for lib/util. *)

module Splitmix = Mis_util.Splitmix
module Dsu = Mis_util.Dsu
module Int_queue = Mis_util.Int_queue
module Heap = Mis_util.Heap
module Ids = Mis_util.Ids

let test_determinism () =
  let a = Splitmix.of_seed 42 and b = Splitmix.of_seed 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next_int64 a)
      (Splitmix.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Splitmix.of_seed 1 and b = Splitmix.of_seed 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Splitmix.next_int64 a <> Splitmix.next_int64 b)

let test_int_bounds () =
  let rng = Splitmix.of_seed 7 in
  for _ = 1 to 10_000 do
    let v = Splitmix.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.failf "out of bounds: %d" v
  done

let test_int_invalid () =
  let rng = Splitmix.of_seed 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Splitmix.int: bound must be positive")
    (fun () -> ignore (Splitmix.int rng 0))

let test_int_uniformity () =
  let rng = Splitmix.of_seed 11 in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Splitmix.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 8 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket %d count %d far from %d" i c expected)
    counts

let test_float_range () =
  let rng = Splitmix.of_seed 13 in
  for _ = 1 to 10_000 do
    let f = Splitmix.float rng in
    if not (f >= 0. && f < 1.) then Alcotest.failf "float out of range: %f" f
  done

let test_bool_fair () =
  let rng = Splitmix.of_seed 17 in
  let trues = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Splitmix.bool rng then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int n in
  if abs_float (ratio -. 0.5) > 0.01 then Alcotest.failf "biased coin: %f" ratio

let test_geometric_bounds () =
  let rng = Splitmix.of_seed 19 in
  for _ = 1 to 10_000 do
    let v = Splitmix.geometric_truncated rng ~p:0.5 ~gamma:10 in
    if v < 0 || v > 10 then Alcotest.failf "geometric out of range: %d" v
  done

let test_geometric_distribution () =
  (* P(0) = 1-p = 1/2 for p = 1/2. *)
  let rng = Splitmix.of_seed 23 in
  let zeros = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Splitmix.geometric_truncated rng ~p:0.5 ~gamma:20 = 0 then incr zeros
  done;
  let ratio = float_of_int !zeros /. float_of_int n in
  if abs_float (ratio -. 0.5) > 0.02 then Alcotest.failf "P(0) = %f, want 0.5" ratio

let test_geometric_truncation () =
  (* gamma = 0 always yields 0. *)
  let rng = Splitmix.of_seed 29 in
  for _ = 1 to 100 do
    Alcotest.(check int) "gamma=0" 0
      (Splitmix.geometric_truncated rng ~p:0.5 ~gamma:0)
  done

let test_derive_key_paths () =
  let s = 123L in
  Alcotest.(check bool) "different key paths differ" true
    (Splitmix.derive s [ 1; 2 ] <> Splitmix.derive s [ 2; 1 ]);
  Alcotest.(check bool) "prefix differs" true
    (Splitmix.derive s [ 1 ] <> Splitmix.derive s [ 1; 1 ]);
  Alcotest.(check int64) "deterministic" (Splitmix.derive s [ 5; 6 ])
    (Splitmix.derive s [ 5; 6 ])

let test_stream_independence () =
  (* Streams from sibling keys should look uncorrelated: crude sign test. *)
  let a = Splitmix.stream 99L [ 0 ] and b = Splitmix.stream 99L [ 1 ] in
  let agree = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Splitmix.bool a = Splitmix.bool b then incr agree
  done;
  let ratio = float_of_int !agree /. float_of_int n in
  if abs_float (ratio -. 0.5) > 0.02 then Alcotest.failf "correlated streams: %f" ratio

(* Dsu *)

let test_dsu_basic () =
  let d = Dsu.create 5 in
  Alcotest.(check int) "initial sets" 5 (Dsu.count d);
  Alcotest.(check bool) "union new" true (Dsu.union d 0 1);
  Alcotest.(check bool) "union repeat" false (Dsu.union d 1 0);
  Alcotest.(check bool) "same" true (Dsu.same d 0 1);
  Alcotest.(check bool) "not same" false (Dsu.same d 0 2);
  Alcotest.(check int) "sets after union" 4 (Dsu.count d);
  Alcotest.(check int) "size" 2 (Dsu.size d 0)

let prop_dsu_count =
  Helpers.qtest "dsu: count = n - successful unions"
    QCheck.(pair (int_range 1 50) (list (pair (int_range 0 49) (int_range 0 49))))
    (fun (n, pairs) ->
      let d = Dsu.create n in
      let successes = ref 0 in
      List.iter
        (fun (a, b) ->
          let a = a mod n and b = b mod n in
          if Dsu.union d a b then incr successes)
        pairs;
      Dsu.count d = n - !successes)

let prop_dsu_same_transitive =
  Helpers.qtest "dsu: same is consistent with find"
    QCheck.(pair (int_range 2 30) (list (pair (int_range 0 29) (int_range 0 29))))
    (fun (n, pairs) ->
      let d = Dsu.create n in
      List.iter (fun (a, b) -> ignore (Dsu.union d (a mod n) (b mod n) : bool)) pairs;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Dsu.same d i j <> (Dsu.find d i = Dsu.find d j) then ok := false
        done
      done;
      !ok)

(* Int_queue *)

let prop_int_queue_model =
  Helpers.qtest "int queue matches stdlib Queue"
    QCheck.(list (option small_nat))
    (fun ops ->
      let q = Int_queue.create ~capacity:1 () in
      let model = Queue.create () in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some x ->
            Int_queue.push q x;
            Queue.push x model
          | None ->
            if Queue.is_empty model then begin
              if not (Int_queue.is_empty q) then ok := false
            end
            else if Int_queue.pop q <> Queue.pop model then ok := false)
        ops;
      !ok && Int_queue.length q = Queue.length model)

let test_int_queue_empty_pop () =
  let q = Int_queue.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Int_queue.pop: empty")
    (fun () -> ignore (Int_queue.pop q))

(* Heap *)

let prop_heap_sorts =
  Helpers.qtest "heap pops in priority order"
    QCheck.(list (pair (float_range (-100.) 100.) small_nat))
    (fun items ->
      let h = Heap.create () in
      List.iter (fun (p, x) -> Heap.push h ~priority:p x) items;
      let out = ref [] in
      while not (Heap.is_empty h) do
        out := fst (Heap.pop_min h) :: !out
      done;
      let popped = List.rev !out in
      let sorted = List.sort Float.compare (List.map fst items) in
      popped = sorted)

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.peek_min: empty")
    (fun () -> ignore (Heap.pop_min h))

(* Ids *)

let test_ids_identity () =
  Alcotest.check Helpers.int_array "identity" [| 0; 1; 2 |] (Ids.identity 3)

let all_distinct a =
  let s = Hashtbl.create 16 in
  Array.for_all
    (fun x ->
      if Hashtbl.mem s x then false
      else begin
        Hashtbl.add s x ();
        true
      end)
    a

let prop_ids_distinct =
  Helpers.qtest "random ids are distinct and in range"
    QCheck.(pair (int_range 1 100) Helpers.arb_seed)
    (fun (n, seed) ->
      let ids = Ids.random_distinct (Splitmix.of_seed seed) ~n in
      all_distinct ids && Array.for_all (fun v -> v >= 0 && v < max 8 (n * n * n)) ids)

let prop_ids_permutation =
  Helpers.qtest "random permutation is a permutation"
    QCheck.(pair (int_range 1 100) Helpers.arb_seed)
    (fun (n, seed) ->
      let p = Ids.random_permutation (Splitmix.of_seed seed) ~n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let suite =
  [ ( "util.splitmix",
      [ Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_int_bounds;
        Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
        Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
        Alcotest.test_case "float range" `Quick test_float_range;
        Alcotest.test_case "bool fair" `Quick test_bool_fair;
        Alcotest.test_case "geometric bounds" `Quick test_geometric_bounds;
        Alcotest.test_case "geometric distribution" `Quick test_geometric_distribution;
        Alcotest.test_case "geometric truncation" `Quick test_geometric_truncation;
        Alcotest.test_case "derive key paths" `Quick test_derive_key_paths;
        Alcotest.test_case "stream independence" `Quick test_stream_independence ] );
    ( "util.dsu",
      [ Alcotest.test_case "basic" `Quick test_dsu_basic;
        prop_dsu_count;
        prop_dsu_same_transitive ] );
    ( "util.int_queue",
      [ prop_int_queue_model;
        Alcotest.test_case "pop empty" `Quick test_int_queue_empty_pop ] );
    ( "util.heap",
      [ prop_heap_sorts; Alcotest.test_case "pop empty" `Quick test_heap_empty ] );
    ( "util.ids",
      [ Alcotest.test_case "identity" `Quick test_ids_identity;
        prop_ids_distinct;
        prop_ids_permutation ] ) ]
