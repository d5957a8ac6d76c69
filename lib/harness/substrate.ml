type spec = { fast : Renaming.Machine.t; capacity : int }

let fast_algo spec = spec.fast
let capacity spec = spec.capacity

let rebatching ?backup instance =
  {
    fast = Renaming.Rebatching.machine ?backup instance;
    capacity = Renaming.Rebatching.base instance + Renaming.Rebatching.size instance;
  }

let adaptive space =
  {
    fast = Renaming.Adaptive_rebatching.machine space;
    capacity = Renaming.Object_space.ladder_capacity space;
  }

let fast_adaptive space =
  {
    fast = Renaming.Fast_adaptive_rebatching.machine space;
    capacity = Renaming.Object_space.ladder_capacity space;
  }

let uniform ~m ~max_steps =
  { fast = Baselines.Uniform_probe.machine ~m ~max_steps; capacity = m }

let linear_scan ~m = { fast = Baselines.Linear_scan.machine ~m; capacity = m }
let cyclic_scan ~m = { fast = Baselines.Cyclic_scan.machine ~m; capacity = m }

let adaptive_doubling ?probes_per_level space =
  {
    fast = Baselines.Adaptive_doubling.machine ?probes_per_level space;
    capacity = Renaming.Object_space.ladder_capacity space;
  }
