module Parallel = Mis_stats.Parallel
module Fairness = Mis_obs.Fairness

type spec = {
  trials : int;
  seed : int;
  domains : int option;
}

let of_config ?trials (cfg : Config.t) =
  { trials = (match trials with Some t -> t | None -> cfg.Config.trials);
    seed = cfg.Config.seed;
    domains = cfg.Config.domains }

let fold ?chunk ?obs spec ~init ~trial ~merge =
  if spec.trials < 1 then invalid_arg "Trials.fold: trials";
  Parallel.map_reduce ?domains:spec.domains ?chunk ?obs ~tasks:spec.trials
    ~init ~merge
    (fun acc i -> trial acc ~seed:(spec.seed + i))

let counts ?check ?obs spec ~n run_once =
  Mis_stats.Montecarlo.run ?check ?obs
    { Mis_stats.Montecarlo.trials = spec.trials; base_seed = spec.seed;
      domains = spec.domains }
    ~n run_once

let fairness ?chunk ?obs spec ~n trial =
  fold ?chunk ?obs spec
    ~init:(fun () -> Fairness.create ~n)
    ~trial
    ~merge:(fun a b ->
      Fairness.merge a b;
      a)
