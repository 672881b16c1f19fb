type outcome = {
  output : bool array;
  decided : bool array;
  rounds : int;
}

let of_kernel (o : Mis_sim.Kernel.outcome) =
  { output = o.Mis_sim.Kernel.output; decided = o.Mis_sim.Kernel.decided;
    rounds = o.Mis_sim.Kernel.rounds }
