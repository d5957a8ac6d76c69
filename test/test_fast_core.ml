(* Cross-substrate equivalence: the zero-allocation fast core running
   the library's machines must produce results identical field for field
   to the independent closure transcriptions of [Reference] under the
   effects scheduler, whenever they execute the same schedule with the
   same seed, and the machines on real atomics ([Shm.Domain_runner], one
   domain) must reproduce the fast core's sequential runs.  This is the
   contract that lets the headline experiments run on the fast substrate
   while the adversarial and multicore work runs the same machines
   through [Renaming.Machine.drive]. *)

let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Result comparison *)

let results_equal (a : Sim.Runner.result) (b : Sim.Runner.result) =
  a.Sim.Runner.names = b.Sim.Runner.names
  && a.Sim.Runner.steps = b.Sim.Runner.steps
  && a.Sim.Runner.crashed = b.Sim.Runner.crashed
  && a.Sim.Runner.total_steps = b.Sim.Runner.total_steps
  && a.Sim.Runner.max_steps = b.Sim.Runner.max_steps
  && a.Sim.Runner.space_used = b.Sim.Runner.space_used
  && a.Sim.Runner.crash_count = b.Sim.Runner.crash_count
  && a.Sim.Runner.point_contention = b.Sim.Runner.point_contention

let diff_report label (a : Sim.Runner.result) (b : Sim.Runner.result) =
  let fields =
    [
      ("names", a.Sim.Runner.names = b.Sim.Runner.names);
      ("steps", a.Sim.Runner.steps = b.Sim.Runner.steps);
      ("crashed", a.Sim.Runner.crashed = b.Sim.Runner.crashed);
      ("total_steps", a.Sim.Runner.total_steps = b.Sim.Runner.total_steps);
      ("max_steps", a.Sim.Runner.max_steps = b.Sim.Runner.max_steps);
      ("space_used", a.Sim.Runner.space_used = b.Sim.Runner.space_used);
      ("crash_count", a.Sim.Runner.crash_count = b.Sim.Runner.crash_count);
      ( "point_contention",
        a.Sim.Runner.point_contention = b.Sim.Runner.point_contention );
    ]
  in
  let bad = List.filter (fun (_, ok) -> not ok) fields in
  Printf.sprintf "%s: fields differ: %s" label
    (String.concat ", " (List.map fst bad))

(* ------------------------------------------------------------------ *)
(* Spec generation: (algorithm, parameters) drawn by QCheck *)

let spec_of_choice ~n ~t0 ~epsilon = function
  | 0 -> Harness.Substrate.rebatching (Renaming.Rebatching.make ~epsilon ~t0 ~n ())
  | 1 -> Harness.Substrate.adaptive (Renaming.Object_space.create ~t0 ())
  | 2 -> Harness.Substrate.fast_adaptive (Renaming.Object_space.create ~t0 ())
  | 3 -> Harness.Substrate.uniform ~m:(2 * n) ~max_steps:(1000 * n)
  | 4 -> Harness.Substrate.linear_scan ~m:(2 * n)
  | 5 -> Harness.Substrate.cyclic_scan ~m:(2 * n)
  | _ -> Harness.Substrate.adaptive_doubling (Renaming.Object_space.create ~t0 ())

(* The independent closure transcription of the same choice. *)
let reference_of_choice ~n ~t0 ~epsilon = function
  | 0 ->
    let r = Renaming.Rebatching.make ~epsilon ~t0 ~n () in
    fun env -> Reference.Rebatching.get_name env r
  | 1 ->
    let space = Renaming.Object_space.create ~t0 () in
    fun env -> Reference.Adaptive_rebatching.get_name env space
  | 2 ->
    let space = Renaming.Object_space.create ~t0 () in
    fun env -> Reference.Fast_adaptive_rebatching.get_name env space
  | 3 ->
    fun env -> Reference.Uniform_probe.get_name env ~m:(2 * n) ~max_steps:(1000 * n)
  | 4 -> fun env -> Reference.Linear_scan.get_name env ~m:(2 * n)
  | 5 -> fun env -> Reference.Cyclic_scan.get_name env ~m:(2 * n)
  | _ ->
    let space = Renaming.Object_space.create ~t0 () in
    fun env -> Reference.Adaptive_doubling.get_name env space

let case_gen =
  QCheck.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* n = int_range 1 192 in
    let* choice = int_range 0 6 in
    let* t0 = int_range 2 4 in
    let* eps_i = int_range 1 4 in
    let* shuffled = bool in
    return (seed, n, choice, t0, 0.25 *. float_of_int eps_i, shuffled))

let case_print (seed, n, choice, t0, epsilon, shuffled) =
  Printf.sprintf "seed=%d n=%d algo=%d t0=%d epsilon=%g shuffled=%b" seed n
    choice t0 epsilon shuffled

let case_arb = QCheck.make ~print:case_print case_gen

(* One domain of [Shm.Domain_runner] runs the pids in order over real
   atomics, the unshuffled sequential schedule: the names and per-pid
   step counts of the fast core's unshuffled run. *)
let atomic_matches_fast ~seed ~n spec (fast : Sim.Runner.result) =
  let atomic =
    Shm.Domain_runner.run ~domains:1 ~seed ~procs:n
      ~capacity:(Harness.Substrate.capacity spec)
      ~algo:(Renaming.Machine.drive (Harness.Substrate.fast_algo spec))
      ()
  in
  atomic.Shm.Domain_runner.names = fast.Sim.Runner.names
  && atomic.Shm.Domain_runner.probes = fast.Sim.Runner.steps

(* The sequential schedule is expressible on all three substrates. *)
let qcheck_sequential_equivalence =
  QCheck.Test.make ~name:"sequential: fast = effects = atomic" ~count:220
    case_arb (fun (seed, n, choice, t0, epsilon, shuffled) ->
      let spec = spec_of_choice ~n ~t0 ~epsilon choice in
      let fast shuffled =
        Sim.Fast_core.run_sequential_once ~shuffled ~seed ~n
          ~algo:(Harness.Substrate.fast_algo spec)
          ()
      in
      let fast_run = fast shuffled in
      let effects =
        Sim.Runner.run_sequential ~shuffled ~seed ~n
          ~algo:(reference_of_choice ~n ~t0 ~epsilon choice)
          ()
      in
      if not (results_equal fast_run effects) then
        QCheck.Test.fail_report (diff_report "fast vs effects" fast_run effects);
      let in_order = if shuffled then fast false else fast_run in
      if not (atomic_matches_fast ~seed ~n spec in_order) then
        QCheck.Test.fail_report "fast vs atomic: names or steps differ";
      true)

(* The uniformly random concurrent schedule: fast vs effects (the atomic
   driver cannot choose its interleaving). *)
let qcheck_concurrent_equivalence =
  QCheck.Test.make ~name:"uniform concurrent: fast = effects" ~count:60
    case_arb (fun (seed, n, choice, t0, epsilon, _shuffled) ->
      let spec = spec_of_choice ~n ~t0 ~epsilon choice in
      let fast =
        Sim.Fast_core.run_once ~seed ~n
          ~algo:(Harness.Substrate.fast_algo spec)
          ()
      in
      let effects =
        Sim.Runner.run ~seed ~n
          ~algo:(reference_of_choice ~n ~t0 ~epsilon choice)
          ()
      in
      if not (results_equal fast effects) then
        QCheck.Test.fail_report (diff_report "fast vs effects" fast effects);
      true)

(* ------------------------------------------------------------------ *)
(* Any schedule, crashes included: an effects run's decisions, recorded
   by [Sim.Trace.recorder], replayed through the step API *)

let schedules =
  [|
    Sim.Adversary.random;
    Sim.Adversary.round_robin;
    Sim.Adversary.layered;
    Sim.Adversary.greedy_collision;
    Sim.Adversary.with_crashes ~fraction:0.25 Sim.Adversary.random;
    Sim.Adversary.with_crashes ~fraction:0.25 Sim.Adversary.greedy_collision;
  |]

(* Run the reference under [adversary] on the effects scheduler, replay
   its decisions on a fresh core with [start]/[step_pid]/[crash_pid],
   and demand the same result, field for field, and the same safety
   verdict. *)
let replay_matches ~seed ~n ~choice adversary =
  let adversary, trace = Sim.Trace.recorder adversary in
  let effects =
    Sim.Runner.run ~adversary ~seed ~n
      ~algo:(reference_of_choice ~n ~t0:3 ~epsilon:1.0 choice)
      ()
  in
  let spec = spec_of_choice ~n ~t0:3 ~epsilon:1.0 choice in
  let core =
    Sim.Fast_core.create ~algo:(Harness.Substrate.fast_algo spec) ~n ()
  in
  Sim.Fast_core.reset core ~seed;
  Sim.Fast_core.start core;
  List.iter
    (function
      | Sim.Trace.Stepped pid -> Sim.Fast_core.step_pid core ~pid
      | Sim.Trace.Crashed_pid pid -> Sim.Fast_core.crash_pid core ~pid)
    (Sim.Trace.decisions (trace ()));
  if Sim.Fast_core.live_count core <> 0 then
    QCheck.Test.fail_report "replay left pids live";
  let fast = Sim.Fast_core.result core in
  if not (results_equal fast effects) then
    QCheck.Test.fail_report (diff_report "replay vs effects" fast effects);
  if Sim.Runner.check_unique_names fast <> Sim.Runner.check_unique_names effects
  then QCheck.Test.fail_report "uniqueness verdicts differ";
  true

let replay_print (seed, n, choice, schedule) =
  Printf.sprintf "seed=%d n=%d algo=%d schedule=%s" seed n choice
    schedules.(schedule).Sim.Adversary.name

let qcheck_crash_equivalence =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 1 100_000 in
      let* n = int_range 4 96 in
      let* choice = int_range 0 6 in
      let* schedule = int_range 0 (Array.length schedules - 1) in
      return (seed, n, choice, schedule))
  in
  QCheck.Test.make ~name:"planned before-op crashes: fast = effects" ~count:60
    (QCheck.make ~print:replay_print gen) (fun (seed, n, choice, schedule) ->
      replay_matches ~seed ~n ~choice schedules.(schedule))

(* After-win crashes (the §2 leak): a process whose pending TAS would
   win executes it and dies before recording the name.  Pin their
   accounting: the slot stays taken, the crashed process holds no name,
   survivors stay unique, and every fired crash is counted. *)
let test_after_win_leak () =
  let n = 64 in
  let spec =
    Harness.Substrate.rebatching (Renaming.Rebatching.make ~t0:3 ~n ())
  in
  let core =
    Sim.Fast_core.create ~algo:(Harness.Substrate.fast_algo spec) ~n ()
  in
  (* pid -> the first operation at or after which its next win is fatal *)
  let armed = [ (1, 1); (7, 2); (13, 1); (30, 3); (55, 2) ] in
  List.iter
    (fun seed ->
      Sim.Fast_core.reset core ~seed;
      Sim.Fast_core.start core;
      let rng = Prng.Splitmix.of_int seed in
      let space = Sim.Fast_core.space core in
      let leaked = ref [] in
      while Sim.Fast_core.live_count core > 0 do
        let live = Sim.Fast_core.live_count core in
        let pid = Sim.Fast_core.live_pid core (Prng.Splitmix.int rng live) in
        let loc = Sim.Fast_core.pending_loc core ~pid in
        match List.assoc_opt pid armed with
        | Some op
          when Sim.Fast_core.steps_of core ~pid + 1 >= op
               && not (Sim.Location_space.is_taken space loc) ->
          Sim.Fast_core.crash_pid_after_win core ~pid;
          leaked := loc :: !leaked
        | _ -> Sim.Fast_core.step_pid core ~pid
      done;
      let r = Sim.Fast_core.result core in
      Array.iteri
        (fun pid crashed ->
          if crashed then
            checkb
              (Printf.sprintf "seed %d: crashed pid %d has no name" seed pid)
              true
              (r.Sim.Runner.names.(pid) = None))
        r.Sim.Runner.crashed;
      List.iter
        (fun loc ->
          checkb
            (Printf.sprintf "seed %d: leaked slot %d stays taken" seed loc)
            true
            (Sim.Location_space.is_taken space loc))
        !leaked;
      checkb
        (Printf.sprintf "seed %d: survivors unique" seed)
        true
        (Sim.Runner.check_unique_names r);
      let fired = r.Sim.Runner.crash_count in
      checkb
        (Printf.sprintf "seed %d: every fired crash counted" seed)
        true
        (fired = List.length !leaked && fired >= 1
        && fired <= List.length armed))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Prng.Flat is bit-compatible with the Splitmix split_at convention *)

let test_flat_stream_identity () =
  let streams = 5 and draws = 64 in
  let bank = Prng.Flat.create streams in
  List.iter
    (fun seed ->
      Prng.Flat.reseed bank ~seed;
      let root = Prng.Splitmix.of_int seed in
      for i = 0 to streams - 1 do
        let g = Prng.Splitmix.split_at root i in
        for d = 1 to draws do
          let a = Prng.Flat.bits bank i and b = Prng.Splitmix.bits g in
          if a <> b then
            Alcotest.failf "seed %d stream %d draw %d: flat %d <> splitmix %d"
              seed i d a b
        done
      done)
    [ 0; 1; 42; 123456; max_int ]

(* ------------------------------------------------------------------ *)
(* The SoA layout at scale: the lanes rewrite and the streaming seq
   kernel must agree with the retained driver and the effects reference
   up to n = 10^4, including replayed crashes and step-granular edges. *)

let checki = Alcotest.check Alcotest.int

(* seq_run's O(1)-state streaming execution is bit-identical to the
   retained run_sequential ~shuffled:false on every algorithm, at n well
   past the small cross-substrate cases above. *)
let qcheck_seq_streaming_identity =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 1 1_000_000 in
      let* n = int_range 1 10_000 in
      let* choice = int_range 0 6 in
      let* t0 = int_range 2 4 in
      return (seed, n, choice, t0))
  in
  let print (seed, n, choice, t0) =
    Printf.sprintf "seed=%d n=%d algo=%d t0=%d" seed n choice t0
  in
  QCheck.Test.make ~name:"seq streaming = retained sequential (n <= 10^4)"
    ~count:60 (QCheck.make ~print gen) (fun (seed, n, choice, t0) ->
      let spec = spec_of_choice ~n ~t0 ~epsilon:1.0 choice in
      let capacity = Harness.Substrate.capacity spec in
      let retained =
        Sim.Fast_core.run_sequential_once ~shuffled:false ~seed ~n
          ~algo:(Harness.Substrate.fast_algo spec)
          ()
      in
      let q =
        Sim.Fast_core.seq_create ~capacity
          ~algo:(Harness.Substrate.fast_algo spec)
          ()
      in
      Sim.Fast_core.seq_run q ~seed ~n;
      let named =
        Array.fold_left
          (fun acc name -> if name <> None then acc + 1 else acc)
          0 retained.Sim.Runner.names
      in
      let max_name =
        Array.fold_left
          (fun acc -> function Some u -> max acc u | None -> acc)
          (-1) retained.Sim.Runner.names
      in
      if Sim.Fast_core.seq_total_steps q <> retained.Sim.Runner.total_steps
      then QCheck.Test.fail_report "total_steps differ";
      if Sim.Fast_core.seq_max_steps q <> retained.Sim.Runner.max_steps then
        QCheck.Test.fail_report "max_steps differ";
      if Sim.Fast_core.seq_space_used q <> retained.Sim.Runner.space_used then
        QCheck.Test.fail_report "space_used differ";
      if Sim.Fast_core.seq_named q <> named then
        QCheck.Test.fail_report "named counts differ";
      if Sim.Fast_core.seq_max_name q <> max_name then
        QCheck.Test.fail_report "max names differ";
      true)

(* The lanes layout against the effects reference at 10-50x the size of
   the cross-substrate cases: any indexing slip that happens to stay
   consistent at n ~ 200 (packed flags, swap-removal order) gets another
   chance to surface here. *)
let qcheck_soa_large_n_equivalence =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 1 1_000_000 in
      let* n = int_range 1_000 10_000 in
      let* choice = int_range 0 6 in
      return (seed, n, choice))
  in
  let print (seed, n, choice) =
    Printf.sprintf "seed=%d n=%d algo=%d" seed n choice
  in
  QCheck.Test.make ~name:"large-n sequential: fast = effects (n <= 10^4)"
    ~count:10 (QCheck.make ~print gen) (fun (seed, n, choice) ->
      let spec = spec_of_choice ~n ~t0:3 ~epsilon:1.0 choice in
      let fast =
        Sim.Fast_core.run_sequential_once ~shuffled:false ~seed ~n
          ~algo:(Harness.Substrate.fast_algo spec)
          ()
      in
      let effects =
        Sim.Runner.run_sequential ~shuffled:false ~seed ~n
          ~algo:(reference_of_choice ~n ~t0:3 ~epsilon:1.0 choice)
          ()
      in
      if not (results_equal fast effects) then
        QCheck.Test.fail_report (diff_report "fast vs effects" fast effects);
      true)

(* Replayed crash schedules at large n: the crashed lane and the
   ready-set swap-removal under the step API, against effects. *)
let qcheck_soa_large_n_crashes =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 1 100_000 in
      let* n = int_range 1_000 10_000 in
      (* the paper's three: the scans take Theta(n^2) steps at this n *)
      let* choice = int_range 0 2 in
      let* schedule = int_range 4 (Array.length schedules - 1) in
      return (seed, n, choice, schedule))
  in
  QCheck.Test.make ~name:"large-n armed crashes: fast = effects (n <= 10^4)"
    ~count:6 (QCheck.make ~print:replay_print gen)
    (fun (seed, n, choice, schedule) ->
      replay_matches ~seed ~n ~choice schedules.(schedule))

(* Snapshot/restore mid-run on the lanes layout: branch the execution at
   an arbitrary prefix and both continuations must replay identically —
   the explorer's DFS contract, here exercised at n = 5000. *)
let test_snapshot_restore_mid_run () =
  let n = 5_000 in
  let spec =
    Harness.Substrate.rebatching (Renaming.Rebatching.make ~t0:3 ~n ())
  in
  let core =
    Sim.Fast_core.create ~algo:(Harness.Substrate.fast_algo spec) ~n ()
  in
  List.iter
    (fun seed ->
      Sim.Fast_core.reset core ~seed;
      Sim.Fast_core.start core;
      (* advance an arbitrary deterministic prefix: round-robin over the
         live set, including a couple of explicit crashes *)
      for i = 1 to 3 * n do
        let live = Sim.Fast_core.live_count core in
        if live > 0 then begin
          let pid = Sim.Fast_core.live_pid core (i mod live) in
          if i = 17 || i = 301 then Sim.Fast_core.crash_pid core ~pid
          else Sim.Fast_core.step_pid core ~pid
        end
      done;
      let snap = Sim.Fast_core.snapshot core in
      let finish () =
        while Sim.Fast_core.live_count core > 0 do
          Sim.Fast_core.step_pid core
            ~pid:(Sim.Fast_core.live_pid core 0)
        done;
        Sim.Fast_core.result core
      in
      let a = finish () in
      Sim.Fast_core.restore core snap;
      let b = finish () in
      if not (results_equal a b) then
        Alcotest.failf "seed %d: %s" seed (diff_report "branch a vs b" a b))
    [ 1; 2; 3 ]

(* restart_pid edges at n = 10^4: settled processes re-enter on the
   continuation of their coin stream, live/crashed pids are rejected,
   and re-acquired names stay unique among holders. *)
let test_restart_pid_edges () =
  let n = 10_000 in
  let spec =
    Harness.Substrate.rebatching (Renaming.Rebatching.make ~t0:3 ~n ())
  in
  let core =
    Sim.Fast_core.create ~algo:(Harness.Substrate.fast_algo spec) ~n ()
  in
  Sim.Fast_core.reset core ~seed:7;
  Sim.Fast_core.start core;
  (* crash one pid up front so the crashed-restart edge is available *)
  Sim.Fast_core.crash_pid core ~pid:42;
  (let live = Sim.Fast_core.live_count core in
   checki "one crash leaves n-1 live" (n - 1) live);
  (* a live pid must be rejected *)
  (match Sim.Fast_core.restart_pid core ~pid:(Sim.Fast_core.live_pid core 0) with
  | () -> Alcotest.fail "restart of a live pid did not raise"
  | exception Invalid_argument _ -> ());
  while Sim.Fast_core.live_count core > 0 do
    Sim.Fast_core.step_pid core ~pid:(Sim.Fast_core.live_pid core 0)
  done;
  (* a crashed pid must be rejected *)
  (match Sim.Fast_core.restart_pid core ~pid:42 with
  | () -> Alcotest.fail "restart of a crashed pid did not raise"
  | exception Invalid_argument _ -> ());
  (* release-and-restart a spread of settled pids; each must come back
     live, run to completion, and the holder set must stay unique *)
  let restarted = [ 0; 1; 999; 5_000; 9_999 ] in
  List.iter
    (fun pid ->
      Alcotest.check Alcotest.bool
        (Printf.sprintf "pid %d holds a name before restart" pid)
        true
        (Sim.Fast_core.name_of core ~pid <> None);
      Sim.Fast_core.restart_pid core ~pid;
      checki
        (Printf.sprintf "pid %d restart leaves its name cleared" pid)
        (-1)
        (match Sim.Fast_core.name_of core ~pid with
        | None -> -1
        | Some u -> u))
    restarted;
  checki "all restarted pids are live"
    (List.length restarted)
    (Sim.Fast_core.live_count core);
  while Sim.Fast_core.live_count core > 0 do
    Sim.Fast_core.step_pid core ~pid:(Sim.Fast_core.live_pid core 0)
  done;
  let r = Sim.Fast_core.result core in
  List.iter
    (fun pid ->
      Alcotest.check Alcotest.bool
        (Printf.sprintf "pid %d re-acquired a name" pid)
        true
        (r.Sim.Runner.names.(pid) <> None))
    restarted;
  Alcotest.check Alcotest.bool "holders unique after restarts" true
    (Sim.Runner.check_unique_names r)

(* Preallocated dense mode: with capacity covering the namespace, a
   seq_run allocates nothing once the handle exists (the measured-loop
   claim the large-n sweeps stand on). *)
let test_seq_run_allocation_free () =
  let n = 10_000 in
  let spec =
    Harness.Substrate.rebatching (Renaming.Rebatching.make ~t0:3 ~n ())
  in
  let q =
    Sim.Fast_core.seq_create
      ~capacity:(Harness.Substrate.capacity spec)
      ~algo:(Harness.Substrate.fast_algo spec)
      ()
  in
  Sim.Fast_core.seq_run q ~seed:3 ~n;
  (* warm *)
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  Sim.Fast_core.seq_run q ~seed:4 ~n;
  let w1 = Gc.minor_words () in
  let per_op =
    (w1 -. w0) /. float_of_int (Sim.Fast_core.seq_total_steps q)
  in
  if per_op > 0.01 then
    Alcotest.failf "seq_run allocates %.3f words/op (budget 0.01)" per_op

(* The random loop allocates nothing, for every machine: a warm handle
   (dense prefix preallocated, one run already behind it) metered over
   [reset] + [run]. *)
let test_run_allocation_free () =
  let n = 2_000 in
  for choice = 0 to 6 do
    let spec = spec_of_choice ~n ~t0:3 ~epsilon:1.0 choice in
    let algo = Harness.Substrate.fast_algo spec in
    let core =
      Sim.Fast_core.create ~capacity:(Harness.Substrate.capacity spec) ~algo
        ~n ()
    in
    let go () =
      Sim.Fast_core.reset core ~seed:5;
      Sim.Fast_core.run core
    in
    go ();
    let w0 = Gc.minor_words () in
    go ();
    let w1 = Gc.minor_words () in
    let per_step =
      (w1 -. w0) /. float_of_int (Sim.Fast_core.total_steps core)
    in
    if per_step > 0.01 then
      Alcotest.failf "%s: run allocates %.3f words/step (budget 0.01)"
        algo.Renaming.Machine.label per_step
  done

(* The sparse tail at scale: adaptive ReBatching (t0 = 3) at k = 131072
   overshoots the race ladder up to R_32, probing ~41k 32-cell blocks
   past the dense prefix at locations up to 1.29e10.  The pinned counts
   are the sim-sweep benchmark's for seed 2000; a warmed handle re-runs
   the trial without allocating, and the space costs a table slot per
   probed block, not a page. *)
let test_seq_run_sparse_scale () =
  let k = 131_072 in
  let spec =
    Harness.Substrate.adaptive (Renaming.Object_space.create ~t0:3 ())
  in
  let q =
    Sim.Fast_core.seq_create
      ~capacity:(Harness.Substrate.capacity spec)
      ~algo:(Harness.Substrate.fast_algo spec)
      ()
  in
  let check_counts label =
    checki (label ^ ": total steps") 6_161_980
      (Sim.Fast_core.seq_total_steps q);
    checki (label ^ ": max steps") 60 (Sim.Fast_core.seq_max_steps q);
    checki (label ^ ": high-water mark") 12_883_537_505
      (Sim.Fast_core.seq_space_used q);
    checki (label ^ ": named") k (Sim.Fast_core.seq_named q)
  in
  Sim.Fast_core.seq_run q ~seed:2000 ~n:k;
  check_counts "cold";
  let w0 = Gc.minor_words () in
  Sim.Fast_core.seq_run q ~seed:2000 ~n:k;
  let w1 = Gc.minor_words () in
  check_counts "warm";
  Alcotest.check (Alcotest.float 0.) "minor words in a warm seq_run" 0.
    (w1 -. w0);
  let words = Obj.reachable_words (Obj.repr (Sim.Fast_core.seq_space q)) in
  if words >= 1_000_000 then
    Alcotest.failf "sparse space holds %d words (budget 1M)" words

let suite =
  [
    ( "fast_core.equivalence",
      [
        QCheck_alcotest.to_alcotest qcheck_sequential_equivalence;
        QCheck_alcotest.to_alcotest qcheck_concurrent_equivalence;
        QCheck_alcotest.to_alcotest qcheck_crash_equivalence;
        Alcotest.test_case "after-win leak accounting" `Quick
          test_after_win_leak;
        Alcotest.test_case "flat stream identity" `Quick
          test_flat_stream_identity;
      ] );
    ( "fast_core.soa_large_n",
      [
        QCheck_alcotest.to_alcotest qcheck_seq_streaming_identity;
        QCheck_alcotest.to_alcotest qcheck_soa_large_n_equivalence;
        QCheck_alcotest.to_alcotest qcheck_soa_large_n_crashes;
        Alcotest.test_case "snapshot/restore mid-run (n=5000)" `Quick
          test_snapshot_restore_mid_run;
        Alcotest.test_case "restart_pid edges (n=10^4)" `Quick
          test_restart_pid_edges;
        Alcotest.test_case "seq_run is allocation-free" `Quick
          test_seq_run_allocation_free;
        Alcotest.test_case "run is allocation-free for every machine" `Quick
          test_run_allocation_free;
        Alcotest.test_case "sparse tail at k=131072" `Quick
          test_seq_run_sparse_scale;
      ] );
  ]
