type t = {
  index : int;
  id : int;
  n : int;
  neighbor_ids : int array;
  mutable rng : Mis_util.Splitmix.t;
}

