module View = Mis_graph.View

type config = {
  gamma : int;
  radius_of : int -> int;
  payload_of : int -> int;
  flip_per_hop : bool;
}

type result = {
  leader : int array;
  in_block : bool array;
  payload : int array;
  rounds : int;
}

let observed_payload cfg ~source ~dist =
  let p = cfg.payload_of source in
  if cfg.flip_per_hop && dist land 1 = 1 then 1 - p else p

let run view cfg =
  if cfg.gamma < 0 then invalid_arg "Construct_block: gamma";
  let n = View.n view in
  let best_id = Array.make n (-1) in
  let best_rem = Array.make n (-1) in
  let best_pay = Array.make n (-1) in
  (* Bounded BFS scratch, reused across sources via an epoch counter. *)
  let seen_epoch = Array.make n (-1) in
  let dist = Array.make n 0 in
  let queue = Mis_util.Int_queue.create () in
  let epoch = ref 0 in
  View.iter_active view (fun source ->
      let r = cfg.radius_of source in
      if r < 0 || r > cfg.gamma then invalid_arg "Construct_block: radius_of";
      let ep = !epoch in
      incr epoch;
      Mis_util.Int_queue.clear queue;
      seen_epoch.(source) <- ep;
      dist.(source) <- 0;
      Mis_util.Int_queue.push queue source;
      while not (Mis_util.Int_queue.is_empty queue) do
        let u = Mis_util.Int_queue.pop queue in
        let d = dist.(u) in
        if source > best_id.(u) then begin
          best_id.(u) <- source;
          best_rem.(u) <- r - d;
          best_pay.(u) <- observed_payload cfg ~source ~dist:d
        end;
        if d < r then
          View.iter_adj view u (fun v ->
              if seen_epoch.(v) <> ep then begin
                seen_epoch.(v) <- ep;
                dist.(v) <- d + 1;
                Mis_util.Int_queue.push queue v
              end)
      done);
  let leader = Array.make n (-1) in
  let in_block = Array.make n false in
  let payload = Array.make n (-1) in
  View.iter_active view (fun v ->
      leader.(v) <- best_id.(v);
      in_block.(v) <- best_id.(v) >= 0 && best_rem.(v) > 0;
      payload.(v) <- best_pay.(v));
  { leader; in_block; payload; rounds = cfg.gamma * (cfg.gamma + 1) }
