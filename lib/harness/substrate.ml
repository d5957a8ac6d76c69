type t = Fast | Effects | Atomic

type spec = { label : string; fast : Renaming.Machine.t; capacity : int }

let label spec = spec.label
let closure spec = Renaming.Machine.drive spec.fast
let fast_algo spec = spec.fast
let capacity spec = spec.capacity

let rebatching ?backup instance =
  {
    label = "rebatching";
    fast = Renaming.Rebatching.machine ?backup instance;
    capacity = Renaming.Rebatching.base instance + Renaming.Rebatching.size instance;
  }

(* The adaptive algorithms materialize objects on demand; which indices a
   run reaches depends on contention.  The first 16 objects size the
   simulated space's dense prefix and the atomic substrate's fixed
   array (which rejects a probe past its end).  That is not beyond what
   the experiments' [k] can touch: a process that overshoots the race
   ladder probes far objects — at k = 131072 up to R_32, high-water
   mark 1.29e10 — which on the simulated substrate land in the sparse
   tail of [Sim.Location_space]. *)
let adaptive_capacity space = Renaming.Object_space.total_size space 16

let adaptive space =
  {
    label = "adaptive";
    fast = Renaming.Adaptive_rebatching.machine space;
    capacity = adaptive_capacity space;
  }

let fast_adaptive space =
  {
    label = "fast-adaptive";
    fast = Renaming.Fast_adaptive_rebatching.machine space;
    capacity = adaptive_capacity space;
  }

let uniform ~m ~max_steps =
  { label = "uniform"; fast = Baselines.Uniform_probe.machine ~m ~max_steps; capacity = m }

let linear_scan ~m =
  { label = "linear-scan"; fast = Baselines.Linear_scan.machine ~m; capacity = m }

let cyclic_scan ~m =
  { label = "cyclic-scan"; fast = Baselines.Cyclic_scan.machine ~m; capacity = m }

let adaptive_doubling ?probes_per_level space =
  {
    label = "doubling";
    fast = Baselines.Adaptive_doubling.machine ?probes_per_level space;
    capacity = adaptive_capacity space;
  }

(* Sequential driver over real atomics: same per-pid coin streams and the
   same shuffled completion order as [Runner.run_sequential], with
   [Shm.Atomic_space] supplying the TAS cells.  Sequential execution is
   deterministic, so this replays the simulator runs word for word — the
   cross-substrate check that the simulated TAS semantics match the
   genuine article. *)
let atomic_sequential ~shuffled ~seed ~n spec =
  let space = Shm.Atomic_space.create ~capacity:spec.capacity in
  let root = Prng.Splitmix.of_int seed in
  let names = Array.make n None in
  let steps = Array.make n 0 in
  let hwm = ref 0 in
  let order =
    if shuffled then Prng.Shuffle.permutation (Prng.Splitmix.split_at root n) n
    else Array.init n (fun i -> i)
  in
  Array.iter
    (fun pid ->
      let count = ref 0 in
      let tas loc =
        incr count;
        if loc >= !hwm then hwm := loc + 1;
        Shm.Atomic_space.tas space loc
      in
      let reset loc =
        incr count;
        Shm.Atomic_space.release space loc
      in
      let rng = Prng.Splitmix.split_at root pid in
      let env =
        Renaming.Env.make ~reset ~pid ~tas ~random_int:(Prng.Splitmix.int rng) ()
      in
      names.(pid) <- closure spec env;
      steps.(pid) <- !count)
    order;
  let total_steps = Array.fold_left ( + ) 0 steps in
  let crashed = Array.make n false in
  {
    Sim.Runner.names;
    steps;
    crashed;
    total_steps;
    max_steps = Sim.Runner.surviving_max steps crashed;
    space_used = !hwm;
    crash_count = 0;
    point_contention = 1;
  }

let run_sequential ?(shuffled = true) substrate spec ~seed ~n () =
  match substrate with
  | Fast ->
    Sim.Fast_core.run_sequential_once ~shuffled ~seed ~n ~algo:spec.fast ()
  | Effects ->
    Sim.Runner.run_sequential ~shuffled ~seed ~n ~algo:(closure spec) ()
  | Atomic -> atomic_sequential ~shuffled ~seed ~n spec

let run ?max_total_steps substrate spec ~seed ~n () =
  match substrate with
  | Fast -> Sim.Fast_core.run_once ?max_total_steps ~seed ~n ~algo:spec.fast ()
  | Effects -> Sim.Runner.run ?max_total_steps ~seed ~n ~algo:(closure spec) ()
  | Atomic ->
    invalid_arg
      "Substrate.run: the atomic substrate is sequential-only; use \
       run_sequential, or the effects substrate for adversarial schedules"
