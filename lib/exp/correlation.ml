module View = Mis_graph.View
module Joint = Mis_stats.Joint

let distances = [ 1; 2; 3; 4; 5; 6; 8 ]

(* One representative pair (anchor, node at distance d) per distance. *)
let pairs_of view ~anchor =
  let dist = Mis_graph.Traverse.bfs_from view anchor in
  List.filter_map
    (fun d ->
      let found = ref None in
      Array.iteri (fun v dv -> if !found = None && dv = d then found := Some v) dist;
      match !found with Some v -> Some (d, (anchor, v)) | None -> None)
    distances

let light cfg = { cfg with Config.trials = min cfg.Config.trials 4000 }

let measure cfg pairs run =
  Mis_stats.Montecarlo.fold (Config.montecarlo cfg)
    ~init:(fun () -> Joint.create ~pairs:(Array.of_list (List.map snd pairs)))
    ~trial:(fun joint ~seed -> Joint.record joint (run ~seed))
    ~merge:(fun a b ->
      Joint.merge ~into:a b;
      a)

let run cfg =
  let cfg = light cfg in
  Printf.printf
    "== correlation: join-event correlation vs distance (Sec. II) [%s]\n"
    (Config.describe cfg);
  let topologies =
    [ ("path-128", Mis_workload.Trees.path 128, 40);
      ("binary-depth7", Mis_workload.Trees.complete_kary ~branch:2 ~depth:7, 0) ]
  in
  List.iter
    (fun (name, g, anchor) ->
      let view = View.full g in
      let pairs = pairs_of view ~anchor in
      let luby = measure cfg pairs (Runners.luby.Runners.run view) in
      let fair = measure cfg pairs (Runners.fair_tree.Runners.run view) in
      Printf.printf "%s (anchor %d):\n" name anchor;
      let header = [ "distance"; "Luby corr"; "FairTree corr" ] in
      let body =
        List.mapi
          (fun i (d, _) ->
            [ string_of_int d;
              Printf.sprintf "%+.3f" (Joint.correlation luby i);
              Printf.sprintf "%+.3f" (Joint.correlation fair i) ])
          pairs
      in
      Table.print ~header body;
      print_newline ())
    topologies;
  print_endline
    "(adjacent nodes are strongly anti-correlated (independence!), the\n\
    \ effect decays with distance, echoing Metivier et al.; note FairTree\n\
    \ keeps noticeable long-range correlation from its shared component\n\
    \ leaders — and is nevertheless the fairer algorithm, illustrating the\n\
    \ paper's point that decorrelation and fairness are orthogonal.)\n"
