type nyc_mode = Nyc_full | Nyc_small | Nyc_skip

type t = {
  trials : int;
  seed : int;
  domains : int option;
  nyc : nyc_mode;
  full : bool;
}

let env_int getenv name default =
  match getenv name with
  | None -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v when v > 0 -> v
    | _ -> default)

let load ?(getenv = Sys.getenv_opt) () =
  let full = getenv "FAIRMIS_FULL" = Some "1" in
  let trials = env_int getenv "FAIRMIS_TRIALS" (if full then 10_000 else 2_000) in
  let seed = env_int getenv "FAIRMIS_SEED" 1 in
  let domains =
    match getenv "FAIRMIS_DOMAINS" with
    | None -> None
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> Some d
      | _ -> None)
  in
  let nyc =
    match getenv "FAIRMIS_NYC" with
    | Some "full" -> Nyc_full
    | Some "small" -> Nyc_small
    | Some "skip" -> Nyc_skip
    | Some _ | None -> if full then Nyc_full else Nyc_small
  in
  { trials; seed; domains; nyc; full }

let montecarlo ?trials t =
  { Mis_stats.Montecarlo.trials = Option.value trials ~default:t.trials;
    base_seed = t.seed; domains = t.domains }

let describe t =
  let nyc = match t.nyc with
    | Nyc_full -> "full (17834 nodes)"
    | Nyc_small -> "small (2048 nodes)"
    | Nyc_skip -> "skip"
  in
  Printf.sprintf
    "trials=%d seed=%d domains=%s nyc=%s mode=%s" t.trials t.seed
    (match t.domains with None -> "auto" | Some d -> string_of_int d)
    nyc
    (if t.full then "paper(full)" else "quick")
