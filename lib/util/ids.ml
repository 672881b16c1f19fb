let identity n = Array.init n (fun i -> i)

let random_distinct rng ~n =
  let range = max 8 (n * n * n) in
  let seen = Hashtbl.create (2 * n) in
  Array.init n (fun _ ->
      let rec draw () =
        let v = Splitmix.int rng range in
        if Hashtbl.mem seen v then draw ()
        else begin
          Hashtbl.add seen v ();
          v
        end
      in
      draw ())

let random_permutation rng ~n =
  let a = identity n in
  for i = n - 1 downto 1 do
    let j = Splitmix.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let ceil_log2 n =
  let k = ref 0 and acc = ref 1 in
  while !acc < n do
    incr k;
    acc := 2 * !acc
  done;
  !k
