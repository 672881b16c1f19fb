(* Regression: the global profiler's on/off flags used to be [lazy]
   values, and two pooled domains forcing them for the first time at once
   made one of them raise [CamlinternalLazy.Undefined]. The first thing
   this process does is exactly that: a 2-domain map-reduce whose every
   task opens a [Prof.gspan]. FAIRMIS_POOL_CAP lifts the hardware clamp
   so both domains are real even on a 1-core machine. *)

let () =
  Unix.putenv "FAIRMIS_POOL_CAP" "2";
  let tasks = 256 in
  let sum =
    Fun.protect ~finally:Mis_stats.Parallel.shutdown (fun () ->
        Mis_stats.Parallel.map_reduce ~domains:2 ~chunk:1 ~tasks
          ~init:(fun () -> ref 0)
          ~merge:(fun a b ->
            a := !a + !b;
            a)
          (fun acc i -> Mis_obs.Prof.gspan "race" (fun () -> acc := !acc + i)))
  in
  let expect = tasks * (tasks - 1) / 2 in
  if !sum <> expect then begin
    Printf.eprintf "prof race: sum %d, expected %d\n" !sum expect;
    exit 1
  end
