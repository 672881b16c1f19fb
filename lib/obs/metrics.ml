type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  buckets : float array;
  counts : int array;  (* length = Array.length buckets + 1 (overflow) *)
  mutable sum : float;
  mutable count : int;
  mutable min_v : float;
  mutable max_v : float;
}

type timer = { mutable seconds : float; mutable calls : int }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Timer of timer
  | Sk of Sketch.t

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Timer _ -> "timer"
  | Sk _ -> "sketch"

let register t name make match_existing =
  match Hashtbl.find_opt t.tbl name with
  | None ->
    let m = make () in
    Hashtbl.add t.tbl name m;
    m
  | Some m ->
    if not (match_existing m) then
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered as a %s" name
           (kind_name m));
    m

let counter t name =
  match
    register t name
      (fun () -> Counter { c = 0 })
      (function Counter _ -> true | _ -> false)
  with
  | Counter c -> c
  | _ -> assert false

let incr ?(by = 1) c = c.c <- c.c + by
let counter_value c = c.c

let gauge t name =
  match
    register t name
      (fun () -> Gauge { g = 0. })
      (function Gauge _ -> true | _ -> false)
  with
  | Gauge g -> g
  | _ -> assert false

let set g v = g.g <- v

let default_buckets =
  Array.init 17 (fun i -> Float.of_int (1 lsl i)) (* 1 .. 65536 *)

let histogram t ?(buckets = default_buckets) name =
  if Array.length buckets = 0 then invalid_arg "Metrics.histogram: no buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && buckets.(i - 1) >= b then
        invalid_arg "Metrics.histogram: buckets must be strictly increasing")
    buckets;
  match
    register t name
      (fun () ->
        Histogram
          { buckets = Array.copy buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            sum = 0.; count = 0; min_v = Float.infinity;
            max_v = Float.neg_infinity })
      (function Histogram _ -> true | _ -> false)
  with
  | Histogram h -> h
  | _ -> assert false

let observe h v =
  let nb = Array.length h.buckets in
  let rec slot i = if i >= nb || v <= h.buckets.(i) then i else slot (i + 1) in
  let s = slot 0 in
  h.counts.(s) <- h.counts.(s) + 1;
  h.sum <- h.sum +. v;
  h.count <- h.count + 1;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

let observe_int h v = observe h (float_of_int v)

let timer t name =
  match
    register t name
      (fun () -> Timer { seconds = 0.; calls = 0 })
      (function Timer _ -> true | _ -> false)
  with
  | Timer tm -> tm
  | _ -> assert false

let time tm f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      tm.seconds <- tm.seconds +. (Unix.gettimeofday () -. t0);
      tm.calls <- tm.calls + 1)
    f

let timer_add tm ~seconds ~calls =
  if seconds < 0. || calls < 0 then invalid_arg "Metrics.timer_add";
  tm.seconds <- tm.seconds +. seconds;
  tm.calls <- tm.calls + calls


let sketch t ?accuracy name =
  match
    register t name
      (fun () -> Sk (Sketch.create ?accuracy ()))
      (function Sk _ -> true | _ -> false)
  with
  | Sk s -> s
  | _ -> assert false

(* --- snapshots --------------------------------------------------------- *)

type snapshot = (string * metric) list (* sorted by name; deep copies *)

let copy_metric = function
  | Counter c -> Counter { c = c.c }
  | Gauge g -> Gauge { g = g.g }
  | Histogram h ->
    Histogram
      { h with buckets = Array.copy h.buckets; counts = Array.copy h.counts }
  | Timer tm -> Timer { seconds = tm.seconds; calls = tm.calls }
  | Sk s -> Sk (Sketch.copy s)

let snapshot t =
  Hashtbl.fold (fun name m acc -> (name, copy_metric m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json (s : snapshot) =
  let section keep render =
    List.filter_map
      (fun (name, m) -> Option.map (fun v -> (name, render v)) (keep m))
      s
  in
  Json.obj
    [ ( "counters",
        Json.obj
          (section
             (function Counter c -> Some c | _ -> None)
             (fun c -> Json.int c.c)) );
      ( "gauges",
        Json.obj
          (section
             (function Gauge g -> Some g | _ -> None)
             (fun g -> Json.float g.g)) );
      ( "histograms",
        Json.obj
          (section
             (function Histogram h -> Some h | _ -> None)
             (fun h ->
               Json.obj
                 [ ( "buckets",
                     Json.arr
                       (Array.to_list (Array.map Json.float h.buckets)) );
                   ( "counts",
                     Json.arr (Array.to_list (Array.map Json.int h.counts)) );
                   ("count", Json.int h.count);
                   ("sum", Json.float h.sum);
                   ( "min",
                     if h.count = 0 then Json.null else Json.float h.min_v );
                   ( "max",
                     if h.count = 0 then Json.null else Json.float h.max_v )
                 ])) );
      ( "timers",
        Json.obj
          (section
             (function Timer tm -> Some tm | _ -> None)
             (fun tm ->
               Json.obj
                 [ ("seconds", Json.float tm.seconds);
                   ("calls", Json.int tm.calls) ])) );
      ( "sketches",
        Json.obj
          (section
             (function Sk s -> Some s | _ -> None)
             (fun s ->
               let q p =
                 match Sketch.quantile s p with
                 | Some v -> Json.float v
                 | None -> Json.null
               in
               Json.obj
                 [ ("accuracy", Json.float (Sketch.accuracy s));
                   ("count", Json.int (Sketch.count s));
                   ("sum", Json.float (Sketch.sum s));
                   ( "min",
                     match Sketch.min_value s with
                     | Some v -> Json.float v
                     | None -> Json.null );
                   ( "max",
                     match Sketch.max_value s with
                     | Some v -> Json.float v
                     | None -> Json.null );
                   ( "quantiles",
                     Json.obj
                       [ ("0.5", q 0.5); ("0.9", q 0.9); ("0.95", q 0.95);
                         ("0.99", q 0.99) ] ) ])) ) ]

let find_counter (s : snapshot) name =
  match List.assoc_opt name s with Some (Counter c) -> Some c.c | _ -> None

let find_gauge (s : snapshot) name =
  match List.assoc_opt name s with Some (Gauge g) -> Some g.g | _ -> None

let find_sketch (s : snapshot) name =
  match List.assoc_opt name s with Some (Sk sk) -> Some sk | _ -> None

(* --- typed snapshot view (the exposition formatter's input) ------------- *)

type view =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      v_buckets : float array;
      v_counts : int array;
      v_sum : float;
      v_count : int;
    }
  | Timer_v of { v_seconds : float; v_calls : int }
  | Sketch_v of Sketch.t

let items (s : snapshot) =
  List.map
    (fun (name, m) ->
      let v =
        match m with
        | Counter c -> Counter_v c.c
        | Gauge g -> Gauge_v g.g
        | Histogram h ->
          Histogram_v
            { v_buckets = h.buckets; v_counts = h.counts; v_sum = h.sum;
              v_count = h.count }
        | Timer tm -> Timer_v { v_seconds = tm.seconds; v_calls = tm.calls }
        | Sk sk -> Sketch_v sk
      in
      (name, v))
    s
