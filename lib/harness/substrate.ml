type t = Fast | Effects | Atomic

let to_string = function
  | Fast -> "fast"
  | Effects -> "effects"
  | Atomic -> "atomic"

let of_string s =
  match String.lowercase_ascii s with
  | "fast" -> Some Fast
  | "effects" -> Some Effects
  | "atomic" -> Some Atomic
  | _ -> None

let all = [ Fast; Effects; Atomic ]

type spec = {
  label : string;
  algo : Renaming.Env.t -> int option;
  fast : Renaming.Fast_algo.t;
  capacity : int;
}

let label spec = spec.label
let closure spec = spec.algo
let fast_algo spec = spec.fast
let capacity spec = spec.capacity

(* Wrap the reference closure so [Events.Backup_entered] also reaches a
   plain counter hook — the closure-side mirror of
   [Fast_algo.rebatching ~on_backup].  Composes with any [on_event] the
   runner installs, since the original [emit] is still called. *)
let intercept_backups on_backup algo env =
  match on_backup with
  | None -> algo env
  | Some hook ->
    let emit e =
      (match e with
      | Renaming.Events.Backup_entered _ -> hook ()
      | _ -> ());
      env.Renaming.Env.emit e
    in
    algo { env with Renaming.Env.emit }

let rebatching ?(backup = true) ?on_backup instance =
  {
    label = "rebatching";
    algo =
      intercept_backups on_backup (fun env ->
          Renaming.Rebatching.get_name ~backup env instance);
    fast = Renaming.Fast_algo.rebatching ~backup ?on_backup instance;
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
    algo = (fun env -> Renaming.Adaptive_rebatching.get_name env space);
    fast = Renaming.Fast_algo.adaptive space;
    capacity = adaptive_capacity space;
  }

let fast_adaptive space =
  {
    label = "fast-adaptive";
    algo = (fun env -> Renaming.Fast_adaptive_rebatching.get_name env space);
    fast = Renaming.Fast_algo.fast_adaptive space;
    capacity = adaptive_capacity space;
  }

let uniform ~m ~max_steps =
  {
    label = "uniform";
    algo = (fun env -> Baselines.Uniform_probe.get_name env ~m ~max_steps);
    fast = Renaming.Fast_algo.uniform ~m ~max_steps;
    capacity = m;
  }

let linear_scan ~m =
  {
    label = "linear-scan";
    algo = (fun env -> Baselines.Linear_scan.get_name env ~m);
    fast = Renaming.Fast_algo.linear_scan ~m;
    capacity = m;
  }

let cyclic_scan ~m =
  {
    label = "cyclic-scan";
    algo = (fun env -> Baselines.Cyclic_scan.get_name env ~m);
    fast = Renaming.Fast_algo.cyclic_scan ~m;
    capacity = m;
  }

let adaptive_doubling ?probes_per_level space =
  {
    label = "doubling";
    algo =
      (fun env ->
        Baselines.Adaptive_doubling.get_name env ?probes_per_level space);
    fast = Renaming.Fast_algo.adaptive_doubling ?probes_per_level space;
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
      names.(pid) <- spec.algo env;
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
    Sim.Runner.run_sequential ~shuffled ~seed ~n ~algo:spec.algo ()
  | Atomic -> atomic_sequential ~shuffled ~seed ~n spec

let run ?max_total_steps substrate spec ~seed ~n () =
  match substrate with
  | Fast -> Sim.Fast_core.run_once ?max_total_steps ~seed ~n ~algo:spec.fast ()
  | Effects -> Sim.Runner.run ?max_total_steps ~seed ~n ~algo:spec.algo ()
  | Atomic ->
    invalid_arg
      "Substrate.run: the atomic substrate is sequential-only; use \
       run_sequential, or the effects substrate for adversarial schedules"
