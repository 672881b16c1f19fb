(** The backend-neutral slice of a simulated run's result.

    Luby and FairTree run on the data-parallel {!Mis_sim.Kernel} (see
    {!Luby.run_kernel_on} and {!Fair_tree_distributed.run_kernel_on});
    the message programs on {!Mis_sim.Runtime.Engine} stay the oracle and
    the only path with fault plans and event tracing. A compiled kernel
    may be shared across domains; an engine may not. *)

type outcome = {
  output : bool array;
  decided : bool array;
  rounds : int;
}

val of_kernel : Mis_sim.Kernel.outcome -> outcome
