(* Critical-path length vs n, Luby vs FairTree: the paper's round
   bounds (O(log n) vs O(log^2 n)) read off the causal chain instead of
   the round counter — plus what the chain is made of (delivery vs
   local steps) and how much slack the median node has. On fault-free
   runs the mean critical path must equal the mean round count exactly
   (the analyzer's defining invariant); the [len<>rnd] column counts
   violations and must stay 0. *)

module View = Mis_graph.View
module Trace = Mis_obs.Trace
module Causal = Mis_obs.Causal

let sizes = [ 64; 128; 256; 512 ]
let algs = [ "luby"; "fairtree" ]
let trials = 10

(* Faulty runs are long; size the per-trial ring so no event is evicted
   (an evicted Run_begin would fail the analysis, not corrupt it). *)
let ring_capacity = 1 lsl 21

type acc = {
  mutable a_trials : int;
  mutable a_rounds : int;
  mutable a_len : int;
  mutable a_delivery : int;
  mutable a_slack : int;  (* summed over decided nodes *)
  mutable a_nodes : int;  (* decided nodes *)
  mutable a_mismatch : int;  (* trials with length <> rounds *)
}

let zero () =
  { a_trials = 0; a_rounds = 0; a_len = 0; a_delivery = 0; a_slack = 0;
    a_nodes = 0; a_mismatch = 0 }

let merge a b =
  a.a_trials <- a.a_trials + b.a_trials;
  a.a_rounds <- a.a_rounds + b.a_rounds;
  a.a_len <- a.a_len + b.a_len;
  a.a_delivery <- a.a_delivery + b.a_delivery;
  a.a_slack <- a.a_slack + b.a_slack;
  a.a_nodes <- a.a_nodes + b.a_nodes;
  a.a_mismatch <- a.a_mismatch + b.a_mismatch;
  a

let measure_cell cfg ~alg ~n =
  let traced =
    match Runners.find_traced alg with
    | Ok (_, traced) -> traced
    | Error _ -> invalid_arg ("Critpath.measure_cell: unknown algorithm " ^ alg)
  in
  let view =
    View.full
      (Mis_workload.Trees.random_prufer
         (Mis_util.Splitmix.of_seed (cfg.Config.seed + n)) ~n)
  in
  Mis_stats.Montecarlo.fold (Config.montecarlo ~trials cfg)
    ~init:zero ~merge
    ~trial:(fun acc ~seed ->
      let sink, events = Trace.memory ~capacity:ring_capacity () in
      ignore (traced view ~seed ~tracer:sink);
      match Causal.analyze (events ()) with
      | Error errs ->
        failwith
          (Printf.sprintf "critpath: analyze failed (%s n=%d seed=%d): %s" alg
             n seed
             (String.concat "; " errs))
      | Ok t ->
        let len = Causal.length t in
        acc.a_trials <- acc.a_trials + 1;
        acc.a_rounds <- acc.a_rounds + t.Causal.summary.Mis_obs.Replay.rounds;
        acc.a_len <- acc.a_len + len;
        acc.a_delivery <- acc.a_delivery + t.Causal.delivery_steps;
        Array.iter
          (fun sl ->
            if sl >= 0 then begin
              acc.a_slack <- acc.a_slack + sl;
              acc.a_nodes <- acc.a_nodes + 1
            end)
          (Causal.slack t);
        if len <> t.Causal.summary.Mis_obs.Replay.rounds then
          acc.a_mismatch <- acc.a_mismatch + 1)

let per acc v = float_of_int v /. float_of_int (max 1 acc.a_trials)

let run cfg =
  Printf.printf
    "== critpath: critical-path length vs n, Luby vs FairTree (%d trials \
     per cell on random trees)\n"
    trials;
  let cells =
    List.concat_map
      (fun alg ->
        List.map (fun n -> (alg, n, measure_cell cfg ~alg ~n)) sizes)
      algs
  in
  let header =
    [ "alg"; "n"; "rounds"; "critpath"; "deliv%"; "slack"; "len<>rnd" ]
  in
  let body =
    List.map
      (fun (alg, n, a) ->
        [ alg; string_of_int n;
          Printf.sprintf "%.1f" (per a a.a_rounds);
          Printf.sprintf "%.1f" (per a a.a_len);
          Printf.sprintf "%.0f"
            (100. *. float_of_int a.a_delivery /. float_of_int (max 1 a.a_len));
          Printf.sprintf "%.1f"
            (float_of_int a.a_slack /. float_of_int (max 1 a.a_nodes));
          string_of_int a.a_mismatch ])
      cells
  in
  Table.print ~header body;
  (* growth shape at a glance, one spark per algorithm *)
  List.iter
    (fun alg ->
      let ys =
        List.filter_map
          (fun (a, _, acc) -> if a = alg then Some (per acc acc.a_len) else None)
          cells
        |> Array.of_list
      in
      Printf.printf "%-9s %s  (critical path over n = %s)\n" alg
        (Ascii_plot.sparkline ~width:(Array.length ys) ys)
        (String.concat "," (List.map string_of_int sizes)))
    algs;
  (match Sys.getenv_opt "FAIRMIS_OUT" with
  | Some dir when Sys.file_exists dir && Sys.is_directory dir ->
    let path = Filename.concat dir "critpath.csv" in
    Csv.write ~path
      ~header:
        [ "alg"; "n"; "trials"; "rounds_mean"; "critpath_mean";
          "delivery_share"; "slack_mean"; "mismatches" ]
      (List.map
         (fun (alg, n, a) ->
           [ alg; string_of_int n; string_of_int a.a_trials;
             Printf.sprintf "%.4f" (per a a.a_rounds);
             Printf.sprintf "%.4f" (per a a.a_len);
             Printf.sprintf "%.4f"
               (float_of_int a.a_delivery /. float_of_int (max 1 a.a_len));
             Printf.sprintf "%.4f"
               (float_of_int a.a_slack /. float_of_int (max 1 a.a_nodes));
             string_of_int a.a_mismatch ])
         cells);
    Printf.printf "csv written to %s\n" path
  | Some dir ->
    Printf.eprintf "FAIRMIS_OUT=%s is not a directory; skipping CSV export\n"
      dir
  | None -> ());
  print_endline
    "(expected shape: both critical paths equal their round counts exactly\n\
    \ (len<>rnd = 0); Luby grows like lg n, FairTree like lg n times the\n\
    \ gamma constant; the delivery share is the fraction of the forcing\n\
    \ chain carried by messages rather than local waiting.)\n"
