(* Benchmark harness.

   Three parts, all in one executable as required:

   1. Table regeneration — every experiment of DESIGN.md §4 (T1..T10, F1,
      F2) is rerun through the registry, printing the same tables as
      `repro_cli all` (reduced scale so the whole bench run stays in the
      minutes range; use the CLI for full-scale runs).
   2. Bechamel micro-benchmarks — one Test.make per table/figure kernel,
      measuring the wall-clock cost of the code that regenerates it, plus
      substrate primitives (simulated and atomic TAS).
   3. B1 — the multicore experiment: the same algorithms on real
      Domain/Atomic shared memory, wall-clock per acquisition. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate every experiment table *)

let regenerate_tables () =
  print_endline
    "=== Part 1: table regeneration (reduced scale; see repro_cli for full) ===";
  let ctx = Harness.Experiment.default_ctx ~seed:1 ~trials:3 ~scale:0.5 () in
  List.iter
    (fun e ->
      Printf.printf "\n--- %s: %s ---\n"
        (String.uppercase_ascii e.Harness.Experiment.id)
        e.Harness.Experiment.title;
      Harness.Experiment.run e ctx)
    Harness.Registry.all

(* ------------------------------------------------------------------ *)
(* Part 2: bechamel micro-benchmarks *)

(* Kernels.  Each corresponds to a table/figure and benchmarks the
   dominant unit of work that regenerates it. *)

let bench_rebatching_paper n () =
  let instance = Renaming.Rebatching.make ~n () in
  let algo env = Renaming.Rebatching.get_name env instance in
  ignore (Sim.Runner.run_sequential ~seed:1 ~n ~algo ())

let bench_rebatching_tuned n () =
  let instance = Renaming.Rebatching.make ~t0:3 ~n () in
  let algo env = Renaming.Rebatching.get_name env instance in
  ignore (Sim.Runner.run_sequential ~seed:1 ~n ~algo ())

let bench_uniform n () =
  let algo env =
    Baselines.Uniform_probe.get_name env ~m:(2 * n) ~max_steps:(1000 * n)
  in
  ignore (Sim.Runner.run_sequential ~seed:1 ~n ~algo ())

let bench_adaptive k () =
  let space = Renaming.Object_space.create () in
  let algo env = Renaming.Adaptive_rebatching.get_name env space in
  ignore (Sim.Runner.run_sequential ~seed:1 ~n:k ~algo ())

let bench_fast_adaptive k () =
  let space = Renaming.Object_space.create () in
  let algo env = Renaming.Fast_adaptive_rebatching.get_name env space in
  ignore (Sim.Runner.run_sequential ~seed:1 ~n:k ~algo ())

let bench_effect_scheduler n () =
  let instance = Renaming.Rebatching.make ~t0:3 ~n () in
  let algo env = Renaming.Rebatching.get_name env instance in
  ignore (Sim.Runner.run ~seed:1 ~n ~algo ())

let bench_greedy_adversary n () =
  let instance = Renaming.Rebatching.make ~t0:3 ~n () in
  let algo env = Renaming.Rebatching.get_name env instance in
  ignore
    (Sim.Runner.run ~adversary:Sim.Adversary.greedy_collision ~seed:1 ~n ~algo ())

let bench_marking n () =
  ignore (Lowerbound.Marking.run ~seed:1 (Lowerbound.Marking.default_config ~n))

let bench_coupling () =
  let rng = Prng.Splitmix.of_int 1 in
  for _ = 1 to 1000 do
    ignore (Lowerbound.Coupling.joint_sample rng ~lambda:4.0)
  done

let bench_sim_tas () =
  let space = Sim.Location_space.create ~capacity:1024 () in
  for loc = 0 to 1023 do
    ignore (Sim.Location_space.tas space loc)
  done

let bench_atomic_tas () =
  let space = Shm.Atomic_space.create ~capacity:1024 in
  for loc = 0 to 1023 do
    ignore (Shm.Atomic_space.tas space loc)
  done

let tests =
  [
    (* T1/T2 kernels (T3/T4/T9/T10 share this probe-work shape) *)
    Test.make ~name:"t1/t2 rebatching(paper) n=4096"
      (Staged.stage (bench_rebatching_paper 4096));
    Test.make ~name:"t1/t2 rebatching(t0=3) n=4096"
      (Staged.stage (bench_rebatching_tuned 4096));
    Test.make ~name:"t1/t2 uniform-probe n=4096" (Staged.stage (bench_uniform 4096));
    (* T5/T6 kernels *)
    Test.make ~name:"t5 adaptive k=1024" (Staged.stage (bench_adaptive 1024));
    Test.make ~name:"t6 fast-adaptive k=1024" (Staged.stage (bench_fast_adaptive 1024));
    (* T7/T8 kernels: full effect scheduler *)
    Test.make ~name:"t7 effect-sched random n=512"
      (Staged.stage (bench_effect_scheduler 512));
    Test.make ~name:"t7 effect-sched greedy n=512"
      (Staged.stage (bench_greedy_adversary 512));
    (* F1/F2 kernels *)
    Test.make ~name:"f1 1000 coupled samples" (Staged.stage bench_coupling);
    Test.make ~name:"f2 marking n=4096" (Staged.stage (bench_marking 4096));
    (* substrate primitives *)
    Test.make ~name:"substrate 1024 simulated TAS" (Staged.stage bench_sim_tas);
    Test.make ~name:"substrate 1024 atomic TAS" (Staged.stage bench_atomic_tas);
    (* extension kernels *)
    Test.make ~name:"t11 churn 64x8 acquire/release"
      (Staged.stage (fun () ->
           let object_ = Renaming.Long_lived.make ~t0:3 ~n:64 () in
           let algo (env : Renaming.Env.t) =
             let rec cycle r =
               match Renaming.Long_lived.acquire env object_ with
               | None -> None
               | Some u ->
                 if r = 1 then Some u
                 else begin
                   Renaming.Long_lived.release env object_ u;
                   cycle (r - 1)
                 end
             in
             cycle 8
           in
           ignore (Sim.Runner.run ~seed:1 ~n:64 ~algo ())));
    Test.make ~name:"t13 staggered arrivals n=512"
      (Staged.stage (fun () ->
           let instance = Renaming.Rebatching.make ~t0:3 ~n:512 () in
           let algo env = Renaming.Rebatching.get_name env instance in
           let adversary = Sim.Arrivals.staggered ~interval:4 Sim.Adversary.random in
           ignore (Sim.Runner.run ~adversary ~seed:1 ~n:512 ~algo ())));
    Test.make ~name:"t14 record+replay n=256"
      (Staged.stage (fun () ->
           let instance = Renaming.Rebatching.make ~t0:3 ~n:256 () in
           let algo env = Renaming.Rebatching.get_name env instance in
           let recorder, extract = Sim.Trace.recorder Sim.Adversary.random in
           ignore (Sim.Runner.run ~adversary:recorder ~seed:1 ~n:256 ~algo ());
           ignore
             (Sim.Runner.run
                ~adversary:(Sim.Trace.replayer (extract ()))
                ~seed:1 ~n:256 ~algo ())));
    Test.make ~name:"t17 sifter cascade n=4096"
      (Staged.stage (fun () -> ignore (Rwtas.Cascade.run ~seed:1 ~n:4096 ())));
    Test.make ~name:"spec checker overhead n=256"
      (Staged.stage (fun () ->
           let instance = Renaming.Rebatching.make ~t0:3 ~n:256 () in
           let spec = Renaming.Spec.create () in
           Renaming.Spec.with_rebatching spec instance;
           let algo env = Renaming.Rebatching.get_name env instance in
           ignore
             (Sim.Runner.run ~on_event:(Renaming.Spec.observe spec) ~seed:1
                ~n:256 ~algo ())));
  ]

let run_bechamel () =
  print_endline
    "\n=== Part 2: Bechamel micro-benchmarks (monotonic clock + minor words) ===";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  (* The allocation instance rides along on the same raw measurements:
     minor words per run exposes a box sneaking into a kernel loop long
     before it moves the wall-clock column. *)
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let grouped = Test.make_grouped ~name:"loose-renaming" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let alloc_results = Analyze.all ols Instance.minor_allocated raw in
  let estimate_of ols =
    match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%-52s %16s %14s %10s\n" "benchmark" "ns/run" "words/run" "R^2";
  print_endline (String.make 96 '-');
  List.iter
    (fun (name, ols) ->
      let estimate = estimate_of ols in
      let words =
        match Hashtbl.find_opt alloc_results name with
        | Some a -> estimate_of a
        | None -> nan
      in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      Printf.printf "%-52s %16.0f %14.0f %10.4f\n" name estimate words r2)
    rows

(* ------------------------------------------------------------------ *)
(* Part 3: B1 — real multicore shared memory *)

let b1_multicore () =
  print_endline "\n=== Part 3 (B1): algorithms on Domain/Atomic shared memory ===";
  Printf.printf "recommended domains on this machine: %d\n"
    (Domain.recommended_domain_count ());
  let table =
    Harness.Table.create
      ~columns:
        [
          ("algorithm", Harness.Table.Left);
          ("procs", Harness.Table.Right);
          ("domains", Harness.Table.Right);
          ("wall us", Harness.Table.Right);
          ("us/name", Harness.Table.Right);
          ("probes/proc", Harness.Table.Right);
          ("unique", Harness.Table.Left);
        ]
  in
  let algorithms =
    [
      ( "rebatching(t0=3)",
        fun procs ->
          let instance = Renaming.Rebatching.make ~t0:3 ~n:procs () in
          ( Renaming.Rebatching.size instance,
            fun env -> Renaming.Rebatching.get_name env instance ) );
      ( "fast-adaptive",
        fun procs ->
          (* Paper probe constants: the race phase then never overshoots
             past the first power-of-two object sized >= 4*procs, so a
             fixed capacity is safe (that is what the Lemma 4.2 constant
             buys). *)
          let space = Renaming.Object_space.create () in
          let levels =
            let rec ceil_log2 acc p = if p >= 4 * procs then acc else ceil_log2 (acc + 1) (2 * p) in
            let need = ceil_log2 0 1 in
            let rec next_pow2 p = if p >= need then p else next_pow2 (2 * p) in
            next_pow2 1
          in
          ( Renaming.Object_space.total_size space levels,
            fun env -> Renaming.Fast_adaptive_rebatching.get_name env space ) );
      ( "uniform-probe",
        fun procs ->
          ( 2 * procs,
            fun env ->
              Baselines.Uniform_probe.get_name env ~m:(2 * procs)
                ~max_steps:(1000 * procs) ) );
    ]
  in
  List.iter
    (fun (name, make) ->
      List.iter
        (fun (procs, domains) ->
          let capacity, algo = make procs in
          let r = Shm.Domain_runner.run ~domains ~seed:11 ~procs ~capacity ~algo () in
          Harness.Table.add_row table
            [
              name;
              Harness.Table.cell_int procs;
              Harness.Table.cell_int r.domains_used;
              Harness.Table.cell_float ~decimals:0 (r.wall_ns /. 1e3);
              Harness.Table.cell_float (r.wall_ns /. 1e3 /. float_of_int procs);
              Harness.Table.cell_float
                (float_of_int r.total_probes /. float_of_int procs);
              (if Shm.Domain_runner.check_unique_names r then "yes" else "NO");
            ])
        [ (256, 1); (256, 2); (256, 4); (1024, 4); (4096, 4) ])
    algorithms;
  print_string (Harness.Table.render table);
  print_endline
    "note: with fewer hardware cores than domains the rows measure \
     timesharing + atomics, not parallel speedup; probes/proc and uniqueness \
     remain the portable signal."

let () =
  regenerate_tables ();
  run_bechamel ();
  b1_multicore ();
  print_endline "\nbench: all parts completed."
