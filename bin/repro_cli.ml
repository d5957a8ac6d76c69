(* Command-line driver for the reproduction experiments.

   repro_cli list                      enumerate experiments
   repro_cli run t1 t5 --trials 10     run selected experiments
   repro_cli all --scale 0.5           run everything, half-size
   Add --csv DIR to also write each table as DIR/<id>_<k>.csv.

   With --out DIR the run goes through the parallel engine instead, by
   the same batch driver as `bench --large' (Engine.Plan.run_batch; this
   file only wires flags to it and prints its result): trial jobs fan
   out across --jobs N domains, every trial lands as one JSONL record in
   DIR/<id>.jsonl (plus DIR/manifest.json), and --resume skips jobs
   already present there.  Per-job seeds are derived
   deterministically from (seed, experiment, sweep point, trial), so any
   --jobs value produces identical records.  Without --out, each
   experiment runs serially: a job-grain experiment runs its jobs in
   order with seed + trial and renders its tables from their results.

   The engine path is fault-tolerant: each job runs once on its own
   seed; a raising job leaves one line in DIR/<id>.failures.jsonl and
   no record while the other jobs complete, and the run exits 1;
   SIGINT/SIGTERM drain in-flight jobs and print the exact --resume
   command; --resume is validated against the stored manifest and runs
   every job with no record again on the same seed.

   repro_cli doctor DIR audits a directory offline: each file kind in
   it (stores and manifest, chaos plans and verdicts, counterexamples,
   sockets, journals, BENCH_* artifacts) is audited by the library
   that owns it, and doctor is one fold that prints their lines.  The
   same holds for the other commands: this file keeps flag wiring,
   exit-code mapping and the printing of what the libraries return. *)

let make_ctx ~seed ~trials ~scale ~csv_dir ~current_id =
  let table_index = ref 0 in
  let emit_table ~title table =
    print_newline ();
    print_endline title;
    print_string (Harness.Table.render table);
    match csv_dir with
    | None -> ()
    | Some dir ->
      incr table_index;
      let path =
        Filename.concat dir (Printf.sprintf "%s_%d.csv" !current_id !table_index)
      in
      let oc = open_out path in
      output_string oc (Harness.Table.to_csv table);
      close_out oc;
      Printf.printf "  [csv: %s]\n" path
  in
  {
    Harness.Experiment.seed;
    trials;
    scale;
    emit_table;
    log = print_endline;
  }

let run_serial exps seed trials scale csv_dir =
  (match csv_dir with
  | Some dir ->
    if Sys.file_exists dir && not (Sys.is_directory dir) then begin
      Printf.eprintf "--csv: %s exists and is not a directory\n" dir;
      exit 1
    end;
    Engine.Sink.mkdir_p dir
  | None -> ());
  let current_id = ref "" in
  let ctx = make_ctx ~seed ~trials ~scale ~csv_dir ~current_id in
  let failures = ref [] in
  List.iter
    (fun (e : Harness.Experiment.t) ->
      current_id := e.id;
      Printf.printf "\n=== %s: %s ===\n" (String.uppercase_ascii e.id) e.title;
      Printf.printf "claim: %s\n" e.claim;
      let t0 = Unix.gettimeofday () in
      match Harness.Experiment.run e ctx with
      | () ->
        Printf.printf "[%s done in %.1fs]\n" e.id (Unix.gettimeofday () -. t0)
      | exception Failure msg ->
        flush stdout;
        Printf.eprintf "[%s FAILED: %s]\n%!" e.id msg;
        failures := e.id :: !failures)
    exps;
  if !failures = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* Graceful shutdown: SIGINT/SIGTERM set a flag the engine polls before
   claiming each job — in-flight jobs drain, the manifest is finalized
   with status=interrupted, and the exact --resume command is printed.
   A second signal force-exits. *)

let interrupt_requested = Atomic.make false

let install_signal_handlers () =
  let handle _ =
    if Atomic.get interrupt_requested then exit 130
    else begin
      Atomic.set interrupt_requested true;
      prerr_endline
        "\n[interrupt] draining in-flight jobs (press again to force-quit)"
    end
  in
  List.iter
    (fun s -> try Sys.set_signal s (Sys.Signal_handle handle) with _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* The engine path: fan trial jobs out across domains into a JSONL store
   through Engine.Plan.run_batch.  Experiments with a Serial body fall
   back to the serial runner so `all --out DIR` still covers the whole
   registry. *)
let run_engine exps seed trials scale csv_dir out_dir workers resume =
  if Sys.file_exists out_dir && not (Sys.is_directory out_dir) then begin
    Printf.eprintf "--out: %s exists and is not a directory\n" out_dir;
    exit 1
  end;
  let ctx = Harness.Experiment.default_ctx ~seed ~trials ~scale () in
  install_signal_handlers ();
  let should_stop () = Atomic.get interrupt_requested in
  match
    Engine.Plan.run_batch ~workers ~resume ~should_stop ~out_dir
      (List.map (fun e -> (e, ctx)) exps)
  with
  | Error msg ->
    (* Resuming against a store written with different parameters would
       silently mix incompatible records; refused before any write. *)
    Printf.eprintf "--resume: %s\n" msg;
    1
  | Ok batch ->
    List.iter
      (fun (o : Engine.Plan.outcome) ->
        Printf.printf
          "[%s: %d jobs (%d skipped via resume, %d executed) -> %s in %.1fs]\n"
          o.experiment o.total_jobs o.skipped o.executed o.store o.wall_s;
        if o.malformed > 0 then
          Printf.printf
            "[%s: %d malformed mid-file line(s) skipped on resume — audit \
             with `repro_cli doctor %s']\n"
            o.experiment o.malformed out_dir;
        if o.quarantined > 0 then
          Printf.printf "[%s: %d job(s) quarantined -> %s]\n" o.experiment
            o.quarantined o.failures_store)
      batch.outcomes;
    flush stdout;
    List.iter
      (fun (id, msg) -> Printf.eprintf "[%s FAILED: %s]\n%!" id msg)
      batch.failed;
    if batch.interrupted then begin
      let opts =
        Printf.sprintf "--seed %d --trials %d --scale %g --jobs %d" seed trials
          scale workers
      in
      Printf.eprintf
        "[interrupted] store finalized; resume with:\n\
        \  repro_cli run %s %s --out %s --resume\n\
         %!"
        (String.concat " "
           (List.map (fun (e : Harness.Experiment.t) -> e.id) exps))
        opts out_dir;
      130
    end
    else begin
      let quarantined =
        List.concat_map (fun (o : Engine.Plan.outcome) -> o.failed_keys)
          batch.outcomes
      in
      if quarantined <> [] then
        Printf.eprintf "[%d job(s) quarantined: %s]\n%!"
          (List.length quarantined)
          (String.concat " " quarantined);
      List.iter
        (fun (e : Harness.Experiment.t) ->
          Printf.eprintf "[%s has no job-grain port yet; running serially]\n%!"
            e.id)
        batch.serial;
      let serial_rc =
        match batch.serial with
        | [] -> 0
        | fallback -> run_serial fallback seed trials scale csv_dir
      in
      if batch.failed <> [] || quarantined <> [] then 1 else serial_rc
    end

let run_experiments ids seed trials scale csv_dir jobs out_dir resume =
  match List.filter (fun id -> Harness.Registry.find id = None) ids with
  | _ :: _ as unknown ->
    Printf.eprintf "unknown experiment(s) %s; try `repro_cli list'\n"
      (String.concat ", " unknown);
    2
  | [] -> (
    let exps = List.filter_map Harness.Registry.find ids in
    match (out_dir, jobs, resume) with
    | None, None, false -> run_serial exps seed trials scale csv_dir
    | None, Some _, _ | None, _, true ->
      Printf.eprintf "--jobs/--resume require --out DIR (the JSONL store)\n";
      2
    | Some out, _, _ ->
      let workers =
        match jobs with
        | Some j -> max 1 j
        | None -> Engine.Pool.default_workers ()
      in
      run_engine exps seed trials scale csv_dir out workers resume)

(* ------------------------------------------------------------------ *)
(* simulate: one configurable run with detailed output *)

let algo_names =
  [ "rebatching"; "rebatching-paper"; "adaptive"; "fast"; "uniform"; "scan";
    "cyclic"; "doubling" ]

let make_spec name ~n ~t0 ~epsilon =
  let m = int_of_float (Float.ceil ((1. +. epsilon) *. float_of_int n)) in
  match name with
  | "rebatching" ->
    Ok (Harness.Substrate.rebatching (Renaming.Rebatching.make ~epsilon ~t0 ~n ()))
  | "rebatching-paper" ->
    Ok (Harness.Substrate.rebatching (Renaming.Rebatching.make ~epsilon ~n ()))
  | "adaptive" ->
    Ok (Harness.Substrate.adaptive (Renaming.Object_space.create ~t0 ()))
  | "fast" ->
    Ok (Harness.Substrate.fast_adaptive (Renaming.Object_space.create ~t0 ()))
  | "uniform" -> Ok (Harness.Substrate.uniform ~m ~max_steps:(1000 * n))
  | "scan" -> Ok (Harness.Substrate.linear_scan ~m)
  | "cyclic" -> Ok (Harness.Substrate.cyclic_scan ~m)
  | "doubling" ->
    Ok (Harness.Substrate.adaptive_doubling (Renaming.Object_space.create ~t0 ()))
  | other -> Error (Printf.sprintf "unknown algorithm %S" other)

let simulate algo_name n seed adversary_name crash_fraction stagger histogram =
  match make_spec algo_name ~n ~t0:3 ~epsilon:1.0 with
  | Error msg ->
    prerr_endline msg;
    Printf.eprintf "algorithms: %s\n" (String.concat ", " algo_names);
    2
  | Ok spec -> (
    match Sim.Adversary.by_name adversary_name with
    | None ->
      Printf.eprintf "unknown adversary %S; one of: %s\n" adversary_name
        (String.concat ", "
           (List.map (fun a -> a.Sim.Adversary.name) Sim.Adversary.all_builtin));
      2
    | Some adversary ->
      let adversary =
        if crash_fraction > 0. then
          Sim.Adversary.with_crashes ~fraction:crash_fraction adversary
        else adversary
      in
      let adversary =
        match stagger with
        | Some interval -> Sim.Arrivals.staggered ~interval adversary
        | None -> adversary
      in
      let r =
        Sim.Runner.run ~adversary ~seed ~n
          ~algo:(Renaming.Machine.drive (Harness.Substrate.fast_algo spec))
          ()
      in
      Printf.printf
        "algo=%s n=%d seed=%d adversary=%s\nunique=%b max_name=%d \
         max_steps=%d total_steps=%d crashes=%d point_contention=%d \
         space_used=%d\n"
        algo_name n seed adversary.Sim.Adversary.name
        (Sim.Runner.check_unique_names r)
        (Sim.Runner.max_name r) r.Sim.Runner.max_steps r.Sim.Runner.total_steps
        r.Sim.Runner.crash_count r.Sim.Runner.point_contention
        r.Sim.Runner.space_used;
      if histogram then begin
        let h = Stats.Histogram.create () in
        Array.iteri
          (fun pid s ->
            if not r.Sim.Runner.crashed.(pid) then Stats.Histogram.add h s)
          r.Sim.Runner.steps;
        print_endline "per-process steps:";
        print_string (Stats.Histogram.render h)
      end;
      if Sim.Runner.check_unique_names r then 0 else 1)

(* ------------------------------------------------------------------ *)
(* verify: the full safety battery *)

let verify seed rounds =
  let failures = ref 0 in
  let checks = ref 0 in
  let report name ok =
    incr checks;
    if not ok then begin
      incr failures;
      Printf.printf "FAIL  %s\n" name
    end
  in
  let sizes = [ 1; 2; 17; 64; 200 ] in
  let adversaries =
    List.map Sim.Validator.validated
      (Sim.Adversary.all_builtin
      @ [
          Sim.Adversary.with_crashes ~fraction:0.3 Sim.Adversary.greedy_collision;
          Sim.Arrivals.staggered ~interval:5 Sim.Adversary.random;
        ])
  in
  let algorithms =
    [
      ( "rebatching",
        fun n ->
          let instance = Renaming.Rebatching.make ~t0:3 ~n () in
          let spec = Renaming.Spec.create () in
          Renaming.Spec.with_rebatching spec instance;
          ((fun env -> Renaming.Rebatching.get_name env instance), spec) );
      ( "adaptive",
        fun _n ->
          let space = Renaming.Object_space.create ~t0:3 () in
          let spec = Renaming.Spec.create () in
          Renaming.Spec.with_object_space spec space;
          ((fun env -> Renaming.Adaptive_rebatching.get_name env space), spec) );
      ( "fast-adaptive",
        fun _n ->
          let space = Renaming.Object_space.create ~t0:3 () in
          let spec = Renaming.Spec.create () in
          Renaming.Spec.with_object_space spec space;
          ( (fun env -> Renaming.Fast_adaptive_rebatching.get_name env space),
            spec ) );
    ]
  in
  List.iter
    (fun (alg_name, make) ->
      List.iter
        (fun adversary ->
          List.iter
            (fun n ->
              for round = 0 to rounds - 1 do
                let algo, spec = make n in
                let label =
                  Printf.sprintf "%s / %s / n=%d / seed=%d" alg_name
                    adversary.Sim.Adversary.name n (seed + round)
                in
                match
                  Sim.Runner.run ~adversary
                    ~on_event:(Renaming.Spec.observe spec)
                    ~seed:(seed + round) ~n ~algo ()
                with
                | exception e ->
                  report (label ^ " raised " ^ Printexc.to_string e) false
                | r ->
                  report (label ^ ": unique names")
                    (Sim.Runner.check_unique_names r);
                  report
                    (label ^ ": spec clean")
                    (Renaming.Spec.violations spec = [])
              done)
            sizes)
        adversaries)
    algorithms;
  Printf.printf "verify: %d checks, %d failures\n" !checks !failures;
  if !failures = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* report: run everything and emit one self-contained markdown file *)

let report out seed trials scale =
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "# Experiment report\n\n";
  p
    "Generated by `repro_cli report` — seed %d, trials %d, scale %.2f.  \
     See DESIGN.md for the experiment index and EXPERIMENTS.md for the \
     recorded full-scale analysis.\n"
    seed trials scale;
  let in_code = ref false in
  let close_code () =
    if !in_code then begin
      p "```\n";
      in_code := false
    end
  in
  let ctx =
    {
      Harness.Experiment.seed;
      trials;
      scale;
      emit_table =
        (fun ~title table ->
          close_code ();
          p "\n**%s**\n\n%s\n" title (Harness.Table.render_markdown table));
      log =
        (fun line ->
          if not !in_code then begin
            p "\n```\n";
            in_code := true
          end;
          p "%s\n" line);
    }
  in
  List.iter
    (fun e ->
      close_code ();
      p "\n## %s — %s\n\nClaim: %s\n"
        (String.uppercase_ascii e.Harness.Experiment.id)
        e.Harness.Experiment.title e.Harness.Experiment.claim;
      Harness.Experiment.run e ctx)
    Harness.Registry.all;
  close_code ();
  close_out oc;
  Printf.printf "report written to %s\n" out;
  0

(* ------------------------------------------------------------------ *)
(* Committed artifacts: the five BENCH_*.json kinds, and the one
   emit -> save -> gate path all their producers share *)

let artifact_kinds =
  Engine.Artifact.
    [
      Any Engine.Kernel_bench.kind;
      Any Engine.Sweep.kind;
      Any Service.Service_bench.kind;
      Any Service.Recovery_bench.kind;
      Any Service.Overload_bench.kind;
    ]

(* --json --out --check --threshold: how every producer prints, saves
   and gates its artifact. *)
type artifact_flags = {
  json : bool;
  out : string;
  check : string option;
  threshold : float;
}

(* Print [art] (its canonical JSON with --json, else rendered), save it
   as the next numbered file under [out], and gate it: on its own audit,
   or with --check on audit @ regress against the baseline.  Chatter
   goes to stderr as "[tag] ...", so --json leaves stdout one document.
   Exit 0 when there are no findings and [ok] holds, 1 on findings, 2
   when the baseline is missing, unreadable or of another kind. *)
let emit_artifact ~tag { json; out; check; threshold } ?(ok = true)
    (kind : _ Engine.Artifact.kind) art =
  let log fmt = Printf.ksprintf (Printf.eprintf "[%s] %s\n%!" tag) fmt in
  if json then print_string (kind.encode art)
  else print_endline (kind.render art);
  log "wrote %s" (Engine.Artifact.save kind ~dir:out art);
  let verdict findings =
    List.iter (log "FAIL: %s") findings;
    if findings = [] && ok then 0 else 1
  in
  match check with
  | None -> verdict (kind.audit art)
  | Some file -> (
    match Engine.Artifact.load kind file with
    | Error e ->
      log "cannot use baseline %s" e;
      2
    | Ok baseline ->
      let findings =
        Engine.Artifact.check kind ~threshold ~baseline ~current:art
      in
      if findings = [] then
        log "regression check passed against %s (threshold %g)" file threshold;
      verdict findings)

(* ------------------------------------------------------------------ *)
(* doctor: every audited file kind in a directory, each audited by the
   library that owns it; this is one fold that prints their lines *)

let doctor dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "doctor: %s is not a directory\n" dir;
    2
  end
  else
    (* Host parallelism: chaos and racecheck results depend on how many
       domains actually ran, so record what this machine provides and
       the cap the runner will apply. *)
    let host =
      Printf.sprintf
        "host: Domain.recommended_domain_count=%d, runner default domains=%d"
        (Domain.recommended_domain_count ())
        (Shm.Domain_runner.default_domains ())
    in
    (* A journal nobody serves is orphaned: the socket audit says
       whether a daemon answers in this directory. *)
    let sockets, served = Service.Client.audit_dir dir in
    let print (problems, notes) = function
      | `Info s -> print_endline s; (problems, notes)
      | `Note s -> Printf.printf "note     %s\n" s; (problems, notes + 1)
      | `Problem s -> Printf.printf "PROBLEM  %s\n" s; (problems + 1, notes)
    in
    let problems, notes =
      List.fold_left print (0, 0)
        (List.concat
           [
             Engine.Checkpoint.audit_manifest dir;
             [ `Info host ];
             Engine.Checkpoint.audit_stores dir;
             Chaos.Chaos_runner.audit_dir dir;
             Mcheck.Worlds.audit_dir dir;
             sockets;
             Service.Journal.audit_dir ~served dir;
             Engine.Artifact.audit_dir artifact_kinds dir;
           ])
    in
    Printf.printf "doctor: %d problem(s), %d note(s)\n" problems notes;
    if problems = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* racecheck: happens-before certification of multicore executions *)

(* The algorithm table lives in Chaos.Algos so racecheck, the chaos
   commands and recorded fault plans all interpret a name the same way. *)
let unknown_algo msg =
  Printf.eprintf "%s\nalgorithms: %s\n" msg
    (String.concat ", " Chaos.Algos.names);
  2

(* A deliberately racy execution for demonstrating the checker: two
   domains plain-write the same location with no synchronization edge
   between them, so their vector clocks are incomparable regardless of
   interleaving and the monitor must report a race. *)
let racecheck_racy_demo () =
  let hb = Analysis.Hb.create ~mode:Analysis.Hb.Collect () in
  let worker () =
    let thread =
      Analysis.Hb.register hb
        ~name:(Printf.sprintf "domain-%d" (Domain.self () :> int))
    in
    Analysis.Hb.plain_write hb ~thread ~loc:"shared-counter"
  in
  (* Raw spawns on purpose: the demo's point is exactly that nothing
     orders the two writes.  repro-lint: allow domain-spawn *)
  let handles = Array.init 2 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join handles;
  match Analysis.Hb.races hb with
  | [] ->
    prerr_endline
      "racecheck --racy: internal error — the guaranteed race was not detected";
    2
  | races ->
    List.iter (fun r -> print_endline (Analysis.Hb.race_to_string r)) races;
    Printf.printf
      "racecheck: %d race(s) detected (expected — this is the racy demo)\n"
      (List.length races);
    1

let racecheck algo_name procs domains seed runs racy =
  if racy then racecheck_racy_demo ()
  else if procs < 1 || domains < 1 || runs < 1 then begin
    Printf.eprintf "racecheck: --procs, --domains and --runs must be >= 1\n";
    2
  end
  else
    match Chaos.Algos.find algo_name with
    | Error msg -> unknown_algo msg
    | Ok build ->
      let dirty = ref 0 in
      for i = 0 to runs - 1 do
        let run_seed = seed + i in
        (* Fresh instance per run: the renaming structures are stateful. *)
        let algo, capacity = build ~n:procs ~t0:3 in
        match
          Analysis.Hb_runner.certify ~domains ~seed:run_seed ~procs ~capacity
            ~algo ()
        with
        | Error races ->
          incr dirty;
          List.iter (fun r -> print_endline (Analysis.Hb.race_to_string r)) races;
          Printf.printf "seed=%d: %d race(s)\n" run_seed (List.length races)
        | Ok o ->
          let r = o.Analysis.Hb_runner.result in
          let s = o.Analysis.Hb_runner.stats in
          if not (Shm.Domain_runner.check_unique_names r) then begin
            incr dirty;
            Printf.printf "seed=%d: race-free but names NOT unique\n" run_seed
          end
          else
            Printf.printf
              "seed=%d: certified race-free (domains=%d threads=%d \
               atomic_locs=%d plain_locs=%d events=%d, unique names)\n"
              run_seed r.Shm.Domain_runner.domains_used s.Analysis.Hb.threads
              s.Analysis.Hb.atomic_locations s.Analysis.Hb.plain_locations
              s.Analysis.Hb.events
      done;
      if !dirty = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* chaos: deterministic crash/delay injection on the multicore substrate *)

let chaos_record out o =
  Option.iter
    (fun dir ->
      Engine.Sink.mkdir_p dir;
      Chaos.Chaos_runner.record ~dir o)
    out

let chaos_print ~json o = print_endline (Chaos.Chaos_runner.render ~json o)
let chaos_exit o = if Chaos.Chaos_runner.clean o then 0 else 1

let chaos_run algo_name procs domains seed crash_frac pause_frac name_bound out
    certify json =
  match Chaos.Algos.find algo_name with
  | Error msg -> unknown_algo msg
  | Ok build -> (
    let algo, capacity = build ~n:procs ~t0:3 in
    match
      Chaos.Fault_plan.make ~seed ~procs ?domains ~algo:algo_name ~capacity
        ?name_bound ~crash_frac ~pause_frac ()
    with
    | exception Invalid_argument msg ->
      Printf.eprintf "chaos run: %s\n" msg;
      2
    | plan ->
      let o = Chaos.Chaos_runner.run ~certify ~plan ~algo () in
      chaos_record out o;
      chaos_print ~json o;
      chaos_exit o)

(* Soak: many independent seeded runs cycling through the crash
   fractions.  A failing run's plan and verdict are recorded to --out,
   so any violation arrives as a committable regression fixture. *)
let chaos_soak algo_name procs domains seed runs fracs pause_frac out certify
    json =
  let usage msg =
    Printf.eprintf "chaos soak: %s\n" msg;
    2
  in
  match Chaos.Algos.find algo_name with
  | _ when runs < 1 || fracs = [] ->
    usage "--runs must be >= 1 and --crash-fracs non-empty"
  | Error msg -> usage msg
  | Ok build -> (
    let rec loop i failures =
      if i = runs then Ok (List.rev failures)
      else
        let seed = seed + i in
        let crash_frac = List.nth fracs (i mod List.length fracs) in
        match
          let algo, capacity = build ~n:procs ~t0:3 in
          let plan =
            Chaos.Fault_plan.make ~seed ~procs ?domains ~algo:algo_name
              ~capacity ~crash_frac ~pause_frac ()
          in
          Chaos.Chaos_runner.run ~certify ~plan ~algo ()
        with
        | exception Invalid_argument msg -> Error msg
        | o when Chaos.Chaos_runner.clean o -> loop (i + 1) failures
        | o ->
          chaos_record out o;
          if not json then chaos_print ~json o;
          loop (i + 1) ((seed, o) :: failures)
    in
    match loop 0 [] with
    | Error msg -> usage msg
    | Ok failures ->
      print_endline (Chaos.Chaos_runner.render_soak ~json ~runs failures);
      if failures = [] then 0 else 1)

let chaos_replay file out certify json =
  match Chaos.Fault_plan.load ~file with
  | Error e ->
    Printf.eprintf "chaos replay: %s: %s\n" file e;
    2
  | Ok (plan, form) -> (
    if form = `Edited then
      Printf.eprintf
        "chaos replay: warning: %s is not in canonical form (hand-edited?); \
         replaying its parsed content\n"
        file;
    match Chaos.Chaos_runner.run_plan ~certify plan with
    | Error e ->
      Printf.eprintf "chaos replay: %s\n" e;
      2
    | Ok o ->
      chaos_record out o;
      chaos_print ~json o;
      chaos_exit o)

(* ------------------------------------------------------------------ *)
(* chaos service / chaos overload: the daemon soaks.  The library runs
   them; an [Error] (bad input, failed boot, a load generator that gave
   up) exits 2, anything else is an artifact to emit. *)

let chaos_service flags cfg =
  match Service.Recovery_bench.run cfg with
  | Error e ->
    Printf.eprintf "[soak] %s\n%!" e;
    2
  | Ok art -> emit_artifact ~tag:"soak" flags Service.Recovery_bench.kind art

(* The daemon's own exit code is its shutdown leak audit: a condition
   of the soak run, not a field of the artifact. *)
let chaos_overload flags cfg =
  match Service.Overload_bench.run cfg with
  | Error e ->
    Printf.eprintf "[overload] %s\n%!" e;
    2
  | Ok (art, daemon_exit) ->
    emit_artifact ~tag:"overload" flags ~ok:(daemon_exit = 0)
      Service.Overload_bench.kind art

(* ------------------------------------------------------------------ *)
(* modelcheck: exhaustive DPOR exploration of small configurations *)

module Explore = Analysis.Explore

type mc_run = {
  mc_label : string;
  mc_stats : Explore.stats;
  mc_fixture : Explore.fixture option;  (* the minimized violation *)
  mc_wall_s : float;
}

(* Explore one world; on a violation, shrink it and build its fixture. *)
let mc_run ~label ~sleep ~max_transitions world fixture_of =
  let t0 = Unix.gettimeofday () in
  let outcome = Explore.explore ~sleep_sets:sleep ~max_transitions world in
  let wall = Unix.gettimeofday () -. t0 in
  {
    mc_label = label;
    mc_stats = outcome.Explore.stats;
    mc_fixture =
      Option.map
        (fun v -> fixture_of (Explore.minimize world v))
        outcome.Explore.violation;
    mc_wall_s = wall;
  }

let mc_print_run r =
  Printf.printf "%s: %d schedule(s), %d transition(s), depth %d, %d pruned%s, %.2fs\n"
    r.mc_label r.mc_stats.Explore.schedules r.mc_stats.Explore.transitions
    r.mc_stats.Explore.max_depth r.mc_stats.Explore.sleep_pruned
    (if r.mc_stats.Explore.complete then "" else " [INCOMPLETE: budget hit]")
    r.mc_wall_s;
  Option.iter
    (fun (fx : Explore.fixture) ->
      Printf.printf "VIOLATION  %s\n  minimized schedule (%d step(s)):\n"
        fx.fx_violation (List.length fx.fx_schedule);
      List.iter (fun (pid, _, label) -> Printf.printf "    p%d %s\n" pid label)
        fx.fx_schedule)
    r.mc_fixture

let mc_run_json r =
  let base =
    [
      ("label", Jsonu.Str r.mc_label);
      ("schedules", Jsonu.Int r.mc_stats.Explore.schedules);
      ("transitions", Jsonu.Int r.mc_stats.Explore.transitions);
      ("max_depth", Jsonu.Int r.mc_stats.Explore.max_depth);
      ("sleep_pruned", Jsonu.Int r.mc_stats.Explore.sleep_pruned);
      ("complete", Jsonu.Bool r.mc_stats.Explore.complete);
      ("wall_s", Jsonu.Num r.mc_wall_s);
    ]
  in
  match r.mc_fixture with
  | None -> Jsonu.Obj base
  | Some fx ->
    Jsonu.Obj (base @ [ ("counterexample", Explore.fixture_to_json fx) ])

(* Replay a committed counterexample fixture: exit 1 when the recorded
   violation reproduces (the fixture still convicts), 0 when the
   schedule now runs clean (the bug is gone — delete the fixture), 2
   when the fixture is unreadable or no longer replayable, including a
   replay that reaches a different violation. *)
let mc_replay file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e ->
    Printf.eprintf "modelcheck: %s\n" e;
    2
  | source -> (
    match Mcheck.Worlds.judge_fixture source with
    | Error (`Invalid e) ->
      Printf.eprintf "modelcheck: %s: %s\n" file e;
      2
    | Error `Clean ->
      Printf.printf
        "%s: schedule replays clean — the recorded violation is gone\n" file;
      0
    | Ok (_, v) ->
      Printf.printf "%s: violation reproduced in %d step(s): %s\n" file
        (List.length v.Explore.schedule) v.Explore.message;
      1)

let modelcheck model procs seed seeds t0 crashes rounds step_budget clients
    names acquires ticks mutation no_sleep quick max_transitions out replay
    json =
  match replay with
  | Some file -> mc_replay file
  | None -> (
    let sleep = not no_sleep in
    let renaming_cfg ?(rounds = rounds) ~seed () =
      {
        Explore.algo = "rebatching";
        procs;
        seed;
        t0;
        crashes;
        rounds;
        step_budget;
        mutation;
      }
    in
    let lease_cfg =
      { Service.Lease_model.clients; names; acquires; ticks; mutation }
    in
    let renaming_runs ~model ~procs ~rounds ~nseeds =
      List.init nseeds (fun i ->
          let cfg = { (renaming_cfg ~seed:(seed + i) ()) with procs; rounds } in
          fun () ->
            match Explore.renaming_world cfg with
            | Error e -> Error e
            | Ok w ->
              Ok
                (mc_run
                   ~label:
                     (Printf.sprintf "%s n=%d seed=%d rounds=%d crashes<=%d"
                        model procs cfg.Explore.seed rounds crashes)
                   ~sleep ~max_transitions w
                   (Explore.renaming_fixture cfg)))
    in
    let lease_runs =
      [
        (fun () ->
          match Mcheck.Worlds.lease_world lease_cfg with
          | w ->
            Ok
              (mc_run
                 ~label:
                   (Printf.sprintf "lease clients=%d names=%d acquires=%d ticks=%d"
                      clients names acquires ticks)
                 ~sleep ~max_transitions w
                 (Mcheck.Worlds.lease_fixture lease_cfg))
          | exception Invalid_argument e -> Error e);
      ]
    in
    let jobs =
      match model with
      | None ->
        (* the default battery: the acceptance configuration (ReBatching
           n=3 with crash points) swept over seeds, a long-lived
           configuration with the linearizability check, and the lease
           protocol model — what the CI smoke job runs *)
        let n3 = if quick then 5 else max 1 seeds in
        let ll = if quick then 2 else 5 in
        renaming_runs ~model:"rebatching" ~procs:3 ~rounds:1 ~nseeds:n3
        @ renaming_runs ~model:"longlived" ~procs:2 ~rounds:2 ~nseeds:ll
        @ lease_runs
      | Some "rebatching" ->
        renaming_runs ~model:"rebatching" ~procs ~rounds:1
          ~nseeds:(max 1 seeds)
      | Some "longlived" ->
        renaming_runs ~model:"longlived" ~procs ~rounds:(max 2 rounds)
          ~nseeds:(max 1 seeds)
      | Some "lease" -> lease_runs
      | Some m ->
        [
          (fun () ->
            Error
              (Printf.sprintf "unknown model %S; one of: %s" m
                 (String.concat ", " Mcheck.Worlds.models)));
        ]
    in
    let wall0 = Unix.gettimeofday () in
    let runs = ref [] in
    let errors = ref [] in
    List.iter
      (fun job ->
        (* keep exploring after a violation: the battery reports every
           config's verdict, and exit codes summarize at the end *)
        match job () with
        | Ok r ->
          if not json then mc_print_run r;
          runs := r :: !runs
        | Error e ->
          Printf.eprintf "modelcheck: %s\n" e;
          errors := e :: !errors)
      jobs;
    let runs = List.rev !runs in
    let wall = Unix.gettimeofday () -. wall0 in
    let fixtures = List.filter_map (fun r -> r.mc_fixture) runs in
    let violations = List.length fixtures in
    let incomplete =
      List.exists (fun r -> not r.mc_stats.Explore.complete) runs
    in
    let total_schedules =
      List.fold_left (fun acc r -> acc + r.mc_stats.Explore.schedules) 0 runs
    in
    Option.iter
      (fun dir ->
        Engine.Sink.mkdir_p dir;
        List.iter
          (fun fx ->
            let file = Filename.concat dir (Mcheck.Worlds.fixture_file fx) in
            Out_channel.with_open_text file (fun oc ->
                output_string oc (Explore.fixture_to_string fx ^ "\n"));
            Printf.printf "counterexample written to %s\n" file)
          fixtures)
      out;
    if json then
      print_string
        (Jsonu.to_string
           (Jsonu.Obj
              [
                ("schema", Jsonu.Str "modelcheck/1");
                ("runs", Jsonu.Arr (List.map mc_run_json runs));
                ("violations", Jsonu.Int violations);
                ("schedules", Jsonu.Int total_schedules);
                ("complete", Jsonu.Bool (not incomplete));
                ("wall_s", Jsonu.Num wall);
              ])
           ^ "\n")
    else
      Printf.printf
        "modelcheck: %d run(s), %d schedule(s) explored, %d violation(s), %.2fs\n"
        (List.length runs) total_schedules violations wall;
    if !errors <> [] then 2
    else if violations > 0 then 1
    else if incomplete then 2
    else 0)

open Cmdliner

(* Shared exit-code convention for the analysis/audit commands; also
   what doctor, simulate and verify follow. *)
let finding_exits =
  [
    Cmd.Exit.info 0 ~doc:"the tree (or run, or store) is clean.";
    Cmd.Exit.info 1 ~doc:"findings were reported (violations, races, problems).";
    Cmd.Exit.info 2 ~doc:"usage, parse or internal error.";
  ]

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Base random seed.")

let trials_t =
  Arg.(
    value & opt int 5
    & info [ "trials" ] ~docv:"N" ~doc:"Repetitions per measured point.")

let scale_t =
  Arg.(
    value & opt float 1.0
    & info [ "scale" ] ~docv:"X"
        ~doc:"Multiplier on default problem sizes (0.25 for a quick pass).")

let csv_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR" ~doc:"Also write every table as CSV into $(docv).")

let jobs_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel engine (requires $(b,--out); \
           default: recommended domain count).  Any value of $(docv) \
           produces identical trial records — seeds are derived per job, \
           not per worker.")

let out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:
          "Run through the parallel engine and store one JSONL record per \
           trial in $(docv)/<id>.jsonl, plus $(docv)/manifest.json.")

let resume_t =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Skip jobs whose records already exist in the $(b,--out) store \
           (crash-safe restart; no duplicate records).  The stored \
           manifest.json is validated against this invocation's seed, \
           trials, scale and experiment set first; a mismatch is an \
           error.  Every job with no record runs again on its own seed, \
           quarantined ones included.")

(* The artifact flags every BENCH_* producer shares; only the
   --threshold default differs between commands. *)
let artifact_t ~threshold =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the artifact as JSON instead of rendering it.")
  in
  let out =
    Arg.(
      value & opt string "bench"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for the numbered BENCH_*.json artifacts.")
  in
  let check =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:
            "Baseline artifact of the same kind to gate against; \
             regressions exit 1.")
  in
  let threshold =
    Arg.(
      value & opt float threshold
      & info [ "threshold" ] ~docv:"T"
          ~doc:"Relative regression tolerance of the $(b,--check) gates.")
  in
  Term.(
    const (fun json out check threshold -> { json; out; check; threshold })
    $ json $ out $ check $ threshold)

(* Daemon and load-generator flags shared by load and the two soaks. *)
let conns_t =
  Arg.(
    value & opt int 4
    & info [ "conns" ] ~docv:"N" ~doc:"Load-generator connections.")

let clients_t =
  Arg.(
    value & opt int 64
    & info [ "clients" ] ~docv:"N"
        ~doc:"Client-id space (the daemon's shard-routing keys).")

let shards_t =
  Arg.(
    value & opt int 2
    & info [ "shards" ] ~docv:"N" ~doc:"Daemon allocator shards.")

let capacity_t ~default =
  Arg.(
    value & opt int default
    & info [ "capacity" ] ~docv:"N" ~doc:"Daemon per-shard capacity.")

let deadline_t ~default =
  Arg.(
    value & opt int default
    & info [ "deadline" ] ~docv:"MS"
        ~doc:
          "Per-request budget stamped on each acquire (0 = none); the \
           daemon sheds rather than serves work whose budget is spent.")

let drain_timeout_t =
  Arg.(
    value & opt float 10.
    & info [ "drain-timeout" ] ~docv:"SECONDS"
        ~doc:
          "How long past the load window the final drain may run before \
           being cut short (reported in the artifact).")

let daemon_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "daemon" ] ~docv:"PATH"
        ~doc:
          "renamed binary to soak (default: renamed.exe next to this \
           executable).")

let keep_t =
  Arg.(
    value & flag
    & info [ "keep" ]
        ~doc:"Keep the scratch directory (socket, journal) for autopsy.")

let list_cmd =
  let doc = "List the available experiments." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-4s %s\n     claim: %s\n" e.Harness.Experiment.id
          e.Harness.Experiment.title e.Harness.Experiment.claim)
      Harness.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc =
    "Run selected experiments by id (see $(b,list); also t1l and t5l)."
  in
  let ids_t =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids.")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_experiments $ ids_t $ seed_t $ trials_t $ scale_t $ csv_t $ jobs_t $ out_t $ resume_t)

let all_cmd =
  let doc =
    "Run every experiment in order (not the large-n sweeps t1l and t5l)."
  in
  let run seed trials scale csv jobs out resume =
    run_experiments
      (List.map (fun e -> e.Harness.Experiment.id) Harness.Registry.all)
      seed trials scale csv jobs out resume
  in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const run $ seed_t $ trials_t $ scale_t $ csv_t $ jobs_t $ out_t $ resume_t)

let doctor_cmd =
  let doc =
    "Audit a result store: truncated tails, malformed lines, duplicate \
     keys, seed-tree mismatches, and quarantine contents; plus chaos \
     plans, counterexamples, sockets, journals and every numbered \
     BENCH_*.json artifact, audited by its kind."
  in
  let dir_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"The $(b,--out) directory to audit.")
  in
  Cmd.v (Cmd.info "doctor" ~doc ~exits:finding_exits) Term.(const doctor $ dir_t)

let racecheck_cmd =
  let doc =
    "Certify multicore runner executions data-race free with a \
     vector-clock happens-before monitor."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the real Shm.Domain_runner with its instrumentation hooks \
         wired into a happens-before monitor: spawn/join/latch edges join \
         vector clocks, every TAS/release executes inside the monitor's \
         critical section, and the result arrays' plain accesses are \
         checked for unordered conflicts.  A clean exit certifies the \
         witnessed executions race-free; races print with both access \
         sites.  $(b,--racy) instead runs a deliberately racy two-domain \
         demo that must exit 1.";
    ]
  in
  let algo_t =
    Arg.(
      value & opt string "rebatching"
      & info [ "algo" ] ~docv:"NAME"
          ~doc:"Algorithm: rebatching, adaptive or fast.")
  in
  let procs_t =
    Arg.(value & opt int 64 & info [ "procs" ] ~docv:"N" ~doc:"Process count.")
  in
  let domains_t =
    Arg.(
      value & opt int 4
      & info [ "domains" ] ~docv:"D" ~doc:"Worker domains to race.")
  in
  let runs_t =
    Arg.(
      value & opt int 1
      & info [ "runs" ] ~docv:"R"
          ~doc:"Independent executions to certify (seeds SEED..SEED+R-1).")
  in
  let racy_t =
    Arg.(
      value & flag
      & info [ "racy" ]
          ~doc:
            "Run the deliberately racy demo instead: two unsynchronized \
             domains write one plain location; exits 1 with the race \
             report.")
  in
  Cmd.v
    (Cmd.info "racecheck" ~doc ~man ~exits:finding_exits)
    Term.(
      const racecheck $ algo_t $ procs_t $ domains_t $ seed_t $ runs_t $ racy_t)

let modelcheck_cmd =
  let doc =
    "Exhaustively model-check the renaming and lease protocols over all \
     interleavings of small configurations."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Drives the renaming state machines step-granularly through \
         Sim.Fast_core (and a pure model of Service.Lease) under a \
         snapshot/restore DFS pruned with sleep sets, enumerating every \
         schedule — crash points included — of configurations up to ~4 \
         processes.  Checked at every transition and terminal state: name \
         uniqueness, the $(b,(1+eps)n) namespace bound, lock-freedom, \
         completion, linearizability of long-lived acquire/release \
         histories (Wing-Gong), and the lease-protocol safety battery \
         (epoch monotonicity, stale-release rejection, zombie isolation, \
         dead-token hygiene).";
      `P
        "With no $(b,--model), runs the default battery: a seed sweep of \
         one-shot ReBatching at n=3 with crash points, a long-lived \
         2-process configuration, and the lease model.  $(b,--mutation) \
         seeds a known bug to convict; violations are minimized and, with \
         $(b,--out), written as canonical replayable fixtures that \
         $(b,--replay) re-convicts and $(b,doctor) audits.";
      `P
        "Exit 1 under $(b,--replay) means the fixture still reproduces \
         its recorded violation (the expected state for a committed \
         regression fixture); 0 means the schedule now replays clean; 2 \
         means it no longer replays, or reaches a different violation \
         than the one recorded.";
    ]
  in
  let model_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Check one model only: $(b,rebatching), $(b,longlived) or \
             $(b,lease).  Default: the whole battery.")
  in
  let procs_t =
    Arg.(
      value & opt int 3
      & info [ "procs" ] ~docv:"N" ~doc:"Processes (renaming models; 1-6).")
  in
  let seeds_t =
    Arg.(
      value & opt int 1
      & info [ "seeds" ] ~docv:"K"
          ~doc:"Sweep coin seeds SEED..SEED+K-1 (renaming models).")
  in
  let t0_t =
    Arg.(
      value & opt int 3
      & info [ "t0" ] ~docv:"T" ~doc:"ReBatching test-and-set batch size t(0).")
  in
  let crashes_t =
    Arg.(
      value & opt int 1
      & info [ "crashes" ] ~docv:"C"
          ~doc:
            "Crash-point budget: total crashes (before-op and after-win \
             leaks) injected across each schedule.")
  in
  let rounds_t =
    Arg.(
      value & opt int 2
      & info [ "rounds" ] ~docv:"R"
          ~doc:"Acquire/release rounds per process (longlived model).")
  in
  let step_budget_t =
    Arg.(
      value & opt int 64
      & info [ "step-budget" ] ~docv:"S"
          ~doc:"Per-process per-round step bound enforcing lock-freedom.")
  in
  let clients_t =
    Arg.(
      value & opt int 2
      & info [ "clients" ] ~docv:"N" ~doc:"Client processes (lease model).")
  in
  let names_t =
    Arg.(
      value & opt int 1
      & info [ "names" ] ~docv:"M" ~doc:"Name-space size (lease model).")
  in
  let acquires_t =
    Arg.(
      value & opt int 2
      & info [ "acquires" ] ~docv:"A"
          ~doc:"Acquire budget per client (lease model).")
  in
  let ticks_t =
    Arg.(
      value & opt int 2
      & info [ "ticks" ] ~docv:"T" ~doc:"Clock-advance budget (lease model).")
  in
  let mutation_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutation" ] ~docv:"BUG"
          ~doc:
            "Seed a known bug and demand a conviction.  Renaming: \
             $(b,claim-on-lose), $(b,probe-out-of-range), $(b,spin).  \
             Lease: $(b,stale-release), $(b,restore-expired).")
  in
  let no_sleep_t =
    Arg.(
      value & flag
      & info [ "no-sleep" ]
          ~doc:
            "Disable sleep-set pruning (full DFS) — slower, for \
             cross-checking the reduction.")
  in
  let quick_t =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Smaller default battery for pre-PR checks (~seconds).")
  in
  let max_transitions_t =
    Arg.(
      value & opt int 50_000_000
      & info [ "max-transitions" ] ~docv:"N"
          ~doc:
            "Transition budget per configuration; hitting it marks the \
             run INCOMPLETE and exits 2.")
  in
  let mc_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write minimized counterexample fixtures into $(docv).")
  in
  let replay_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a counterexample fixture instead of exploring: exit 1 \
             if the recorded violation reproduces, 0 if the schedule now \
             runs clean, 2 if the fixture is malformed or orphaned or \
             replays to a different violation.")
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Machine-readable report on stdout.")
  in
  Cmd.v
    (Cmd.info "modelcheck" ~doc ~man ~exits:finding_exits)
    Term.(
      const modelcheck $ model_t $ procs_t $ seed_t $ seeds_t $ t0_t
      $ crashes_t $ rounds_t $ step_budget_t $ clients_t $ names_t
      $ acquires_t $ ticks_t $ mutation_t $ no_sleep_t $ quick_t
      $ max_transitions_t $ mc_out_t $ replay_t $ json_t)

let chaos_cmd =
  let doc =
    "Deterministic crash/delay fault injection on the real multicore \
     substrate."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Derives a fault plan — pure data — from (seed, procs, domains): \
         which logical processes fail-stop, at which of their own TAS \
         operations, and on which side (before the operation, or after a \
         win but before the name is recorded, leaking the slot); plus \
         bounded delays that widen the explored interleavings.  The plan \
         executes through the runner's instrumentation hooks, an \
         invariant monitor checks survivor progress, survivor \
         uniqueness, the namespace bound and leaked-slot accounting, and \
         plans record to JSON so a failing run replays as a committed \
         regression fixture.";
      `P
        "Exit codes follow the audit convention: 0 all invariants held, \
         1 a violation (or data race, under --certify) was found, 2 \
         usage or internal error.";
    ]
  in
  let algo_t =
    Arg.(
      value & opt string "rebatching"
      & info [ "algo" ] ~docv:"NAME"
          ~doc:"Algorithm: rebatching, adaptive or fast.")
  in
  let procs_t =
    Arg.(value & opt int 64 & info [ "procs" ] ~docv:"N" ~doc:"Process count.")
  in
  let domains_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Worker domains (default: the runner's host cap; 1 makes the \
             fired faults and the verdict exactly reproducible).")
  in
  let crash_frac_t =
    Arg.(
      value & opt float 0.25
      & info [ "crash-frac" ] ~docv:"F"
          ~doc:"Fraction of processes armed with a fail-stop.")
  in
  let pause_frac_t =
    Arg.(
      value & opt float 0.25
      & info [ "pause-frac" ] ~docv:"F"
          ~doc:"Fraction of processes armed with a bounded delay.")
  in
  let name_bound_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "name-bound" ] ~docv:"B"
          ~doc:
            "Namespace invariant: every assigned name must be < $(docv) \
             (default: the algorithm's capacity).")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Record chaos_plan_<seed>.json and chaos_verdict_<seed>.json \
             into $(docv) (soak records only violating runs; repro_cli \
             doctor audits them).")
  in
  let certify_t =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Also run the happens-before monitor over the same execution; \
             a data race fails the run.")
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the verdict (or soak summary) as JSON.")
  in
  let run_cmd =
    let doc = "Derive a plan from the seed and execute it once." in
    Cmd.v (Cmd.info "run" ~doc ~exits:finding_exits)
      Term.(
        const chaos_run $ algo_t $ procs_t $ domains_t $ seed_t $ crash_frac_t
        $ pause_frac_t $ name_bound_t $ out_t $ certify_t $ json_t)
  in
  let soak_cmd =
    let doc =
      "Run many seeded plans (seeds SEED..SEED+RUNS-1), cycling through \
       the crash fractions; violating runs are recorded as fixtures."
    in
    let runs_t =
      Arg.(
        value & opt int 100
        & info [ "runs" ] ~docv:"R" ~doc:"Independent runs to execute.")
    in
    let fracs_t =
      Arg.(
        value
        & opt (list float) [ 0.1; 0.5; 0.9 ]
        & info [ "crash-fracs" ] ~docv:"F1,F2,.."
            ~doc:"Crash fractions the runs cycle through.")
    in
    Cmd.v (Cmd.info "soak" ~doc ~exits:finding_exits)
      Term.(
        const chaos_soak $ algo_t $ procs_t $ domains_t $ seed_t $ runs_t
        $ fracs_t $ pause_frac_t $ out_t $ certify_t $ json_t)
  in
  let replay_cmd =
    let doc =
      "Re-execute a recorded plan file exactly (regression fixtures)."
    in
    let file_t =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"PLAN.json" ~doc:"A chaos_plan_<seed>.json file.")
    in
    Cmd.v (Cmd.info "replay" ~doc ~exits:finding_exits)
      Term.(const chaos_replay $ file_t $ out_t $ certify_t $ json_t)
  in
  let service_cmd =
    let doc =
      "Kill/restart soak of the real renamed daemon: SIGKILL + --recover \
       cycles under open-loop load through the wire-fault proxy."
    in
    let man =
      [
        `S Manpage.s_description;
        `P
          "Boots renamed with a crash journal, drives Load_gen at it \
           (through a seeded socket fault proxy injecting partial writes, \
           stalls and resets, unless $(b,--wire-faults)=false), and \
           SIGKILLs + restarts it with $(b,--recover) every \
           duration/(cycles+1) seconds.  While the daemon is dead, each \
           journal segment is scanned and replayed; duplicate grants are \
           summed across compactions and must be zero.  After the load \
           drains, one lease TTL later the server must hold zero slots — \
           every name abandoned to a killed connection must have been \
           reclaimed by expiry.  Recovery time (SIGKILL to accepting \
           again) is reported as p50/p99/max.";
        `P
          "The outcome is recorded as the next free BENCH_SERVICE_<k>.json \
           with kind bench-service-recovery; bench/BENCH_SERVICE_1.json is \
           the committed baseline CI gates against with $(b,--check).  \
           Any audit finding exits 1, with or without $(b,--check): \
           duplicate grants, slots leaked after expiry, violations, \
           errors, timeouts, journal damage, a failed drain, no \
           acquires, or fewer reconnects than kill cycles.";
      ]
    in
    let cycles_t =
      Arg.(
        value & opt int 10
        & info [ "cycles" ] ~docv:"N" ~doc:"SIGKILL + --recover rounds.")
    in
    let rate_t =
      Arg.(
        value & opt float 300.
        & info [ "rate" ] ~docv:"OPS" ~doc:"Acquire arrivals per second.")
    in
    let duration_t =
      Arg.(
        value & opt float 30.
        & info [ "duration" ] ~docv:"SECONDS"
            ~doc:"Total load window across all cycles.")
    in
    let lease_ttl_t =
      Arg.(
        value & opt float 2.
        & info [ "lease-ttl" ] ~docv:"SECONDS" ~doc:"Daemon lease TTL.")
    in
    let wire_faults_t =
      Arg.(
        value & opt bool true
        & info [ "wire-faults" ] ~docv:"BOOL"
            ~doc:"Route load through the seeded socket fault proxy.")
    in
    let config_t =
      Term.(
        const
          (fun cycles rate duration_s conns clients shards capacity
               lease_ttl_s seed wire_faults daemon keep ->
            { Service.Recovery_bench.cycles; rate; duration_s; conns; clients;
              shards; capacity; lease_ttl_s; seed; wire_faults; daemon; keep })
        $ cycles_t $ rate_t $ duration_t $ conns_t $ clients_t $ shards_t
        $ capacity_t ~default:1024 $ lease_ttl_t $ seed_t $ wire_faults_t
        $ daemon_t $ keep_t)
    in
    Cmd.v (Cmd.info "service" ~doc ~man ~exits:finding_exits)
      Term.(const chaos_service $ artifact_t ~threshold:0.5 $ config_t)
  in
  let overload_cmd =
    let doc =
      "Overload soak of the real renamed daemon: measure its capacity, \
       then drive several times that and check for graceful degradation."
    in
    let man =
      [
        `S Manpage.s_description;
        `P
          "Boots renamed with a bounded admission queue, measures its \
           service capacity (calibration doubles the offered rate from \
           $(b,--calibrate-rate) until the daemon-side goodput — the \
           daemon's own served counter sampled at the window edges — \
           falls short of it; the saturated run's goodput is the \
           capacity, generator and daemon bottlenecks included), then \
           soaks it at $(b,--overdrive) times that rate with \
           per-request deadlines.  \
           Survival means goodput stays within 20% of capacity (no \
           congestion collapse), the excess is refused (busy, with a \
           retry-after hint) or shed at deadline expiry rather than \
           queued without bound, accepted-request latency stays bounded, \
           daemon RSS stays flat, and the drain still conserves every \
           slot.";
        `P
          "The outcome is recorded as the next free BENCH_SERVICE_<k>.json \
           with kind bench-service-overload; bench/BENCH_SERVICE_2.json is \
           the committed baseline CI gates against with $(b,--check).  \
           Each survival property above is audited with or without \
           $(b,--check), as is the daemon's own shutdown exit code; any \
           failure exits 1.";
      ]
    in
    let overdrive_t =
      Arg.(
        value & opt float 5.
        & info [ "overdrive" ] ~docv:"X"
            ~doc:"Soak rate as a multiple of measured capacity.")
    in
    let calibrate_rate_t =
      Arg.(
        value & opt float 40000.
        & info [ "calibrate-rate" ] ~docv:"OPS"
            ~doc:
              "Offered rate of the calibration run; set well above the \
               daemon's expected capacity.")
    in
    let calibrate_duration_t =
      Arg.(
        value & opt float 3.
        & info [ "calibrate-duration" ] ~docv:"SECONDS"
            ~doc:"Calibration load window.")
    in
    let duration_t =
      Arg.(
        value & opt float 10.
        & info [ "duration" ] ~docv:"SECONDS" ~doc:"Soak load window.")
    in
    let max_queue_t =
      Arg.(
        value & opt int 512
        & info [ "max-queue" ] ~docv:"N"
            ~doc:"Daemon per-shard admission bound.")
    in
    let config_t =
      Term.(
        const
          (fun overdrive calibrate_rate calibrate_duration_s duration_s conns
               clients shards capacity max_queue deadline_ms drain_timeout_s
               seed daemon keep ->
            { Service.Overload_bench.overdrive; calibrate_rate;
              calibrate_duration_s; duration_s; conns; clients; shards;
              capacity; max_queue; deadline_ms; drain_timeout_s; seed; daemon;
              keep })
        $ overdrive_t $ calibrate_rate_t $ calibrate_duration_t $ duration_t
        $ conns_t $ clients_t $ shards_t $ capacity_t ~default:4096
        $ max_queue_t $ deadline_t ~default:250 $ drain_timeout_t $ seed_t
        $ daemon_t $ keep_t)
    in
    Cmd.v (Cmd.info "overload" ~doc ~man ~exits:finding_exits)
      Term.(const chaos_overload $ artifact_t ~threshold:0.5 $ config_t)
  in
  Cmd.group
    (Cmd.info "chaos" ~doc ~man ~exits:finding_exits)
    [ run_cmd; soak_cmd; replay_cmd; service_cmd; overload_cmd ]

let simulate_cmd =
  let doc = "Run one simulation with explicit parameters and print details." in
  let algo_t =
    Arg.(
      value & opt string "rebatching"
      & info [ "algo" ] ~docv:"NAME"
          ~doc:
            "Algorithm: rebatching, rebatching-paper, adaptive, fast, \
             uniform, scan, cyclic, doubling.")
  in
  let n_t =
    Arg.(value & opt int 256 & info [ "procs" ] ~docv:"N" ~doc:"Process count.")
  in
  let adversary_t =
    Arg.(
      value & opt string "random"
      & info [ "adversary" ] ~docv:"NAME"
          ~doc:"random, round-robin, layered, greedy or sequential.")
  in
  let crash_t =
    Arg.(
      value & opt float 0.
      & info [ "crash-fraction" ] ~docv:"F" ~doc:"Crash up to this fraction.")
  in
  let stagger_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "stagger" ] ~docv:"I" ~doc:"Stagger arrivals by $(docv) steps.")
  in
  let histogram_t =
    Arg.(value & flag & info [ "histogram" ] ~doc:"Print the step histogram.")
  in
  Cmd.v (Cmd.info "simulate" ~doc ~exits:finding_exits)
    Term.(
      const simulate $ algo_t $ n_t $ seed_t $ adversary_t $ crash_t $ stagger_t
      $ histogram_t)

let verify_cmd =
  let doc =
    "Run the safety battery: every algorithm under every (validated) \
     adversary across sizes and seeds, with the event-stream spec checker \
     attached."
  in
  let rounds_t =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"N" ~doc:"Seeds per cell.")
  in
  Cmd.v (Cmd.info "verify" ~doc ~exits:finding_exits)
    Term.(const verify $ seed_t $ rounds_t)

(* The large-n decade sweep: t1/t5 shapes on the streaming fast core, fanned
   across domains by Engine.Plan.run_batch with checkpoint/resume, and
   aggregated by Engine.Sweep into a kind="bench-large" BENCH_<k>.json. *)
let bench_large flags seed trials jobs store resume max_n max_k =
  if max_n < Harness.Exp_large.grid_lo || max_k < Harness.Exp_large.grid_lo
  then begin
    Printf.eprintf "[bench] --max-n and --max-k must be at least %d\n%!"
      Harness.Exp_large.grid_lo;
    2
  end
  else begin
    let ctx scale =
      Harness.Experiment.default_ctx ~seed ~trials ~scale ()
    in
    (* scale maps --max-n/--max-k onto the experiments' full-grid tops, so
       the produced decades are a subset of the committed full-scale
       baseline and --check stays meaningful on smoke runs. *)
    let plans =
      [
        (Harness.Exp_large.t1l, ctx (float_of_int max_n /. 1e8));
        (Harness.Exp_large.t5l, ctx (float_of_int max_k /. 1e7));
      ]
    in
    install_signal_handlers ();
    let should_stop () = Atomic.get interrupt_requested in
    match
      Engine.Plan.run_batch ?workers:jobs ~resume ~scale_free:true ~should_stop
        ~out_dir:store plans
    with
    | Error msg ->
      Printf.eprintf "[bench] %s\n%!" msg;
      2
    | Ok batch ->
      let quarantined =
        List.fold_left
          (fun acc (o : Engine.Plan.outcome) -> acc + o.quarantined)
          0 batch.outcomes
      in
      if batch.failed <> [] then begin
        List.iter
          (fun (id, msg) -> Printf.eprintf "[bench] %s FAILED: %s\n%!" id msg)
          batch.failed;
        2
      end
      else if batch.interrupted then begin
        Printf.eprintf
          "[bench] interrupted; store finalized, resume with:\n\
          \  repro_cli bench --large --seed %d --trials %d --max-n %d \
           --max-k %d --store %s --resume\n\
           %!"
          seed trials max_n max_k store;
        130
      end
      else if quarantined > 0 then begin
        Printf.eprintf
          "[bench] %d job(s) quarantined; audit with `repro_cli doctor %s'\n%!"
          quarantined store;
        1
      end
      else
        emit_artifact ~tag:"bench" flags Engine.Sweep.kind
          (Engine.Sweep.aggregate ~store_dir:store ~plans)
  end

let bench flags seed scale large trials jobs store resume max_n max_k =
  if large then bench_large flags seed trials jobs store resume max_n max_k
  else
    emit_artifact ~tag:"bench" flags Engine.Kernel_bench.kind
      (Bench_kernels.run_suite ~seed ~scale)

let bench_cmd =
  let doc =
    "Time the fast-core and PRNG kernels (or, with --large, sweep three \
     more decades of n), record BENCH_<k>.json, and optionally fail on \
     regressions against a committed baseline."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs each kernel's hot loop under Gc.minor_words metering and \
         reports ns/op, words/op and the fast-vs-effects speedup per \
         algorithm pair.  Every invocation writes the next free \
         BENCH_<k>.json under $(b,--out); BENCH_0.json is the committed \
         baseline CI diffs against.  With $(b,--check), allocation counts \
         must stay within max(0.25, threshold x baseline) words/op of the \
         baseline, the allocation-free kernels must record ~0 words/op \
         outright, and each speedup must reach 5x or (1 - threshold) of \
         its baseline; absolute ns/op is reported but never checked, \
         since it only measures the host machine.  The absolute gates \
         (allocation-free kernels present and within budget, finite \
         measurements) also apply without $(b,--check): a breach exits \
         1.";
      `P
        "$(b,--large) instead runs the t1l/t5l decade sweeps (step \
         complexity up to n = 10^8 and adaptive contention up to k = \
         10^7) on the streaming fast core: trial jobs fan out across \
         $(b,--jobs) worker domains into a crash-safe $(b,--store) \
         (resume with $(b,--resume)), and the aggregate becomes a \
         kind=bench-large BENCH_<k>.json — the committed BENCH_1.json \
         baseline.  $(b,--max-n)/$(b,--max-k) shrink the grids to a \
         decade subset of the full baseline, so a CI smoke run checks \
         against the same committed file.  The words/op gate and the \
         decade-grid audit are absolute and apply with or without \
         $(b,--check); steps and space check against the baseline; \
         timing is informational.";
    ]
  in
  let large_t =
    Arg.(
      value & flag
      & info [ "large" ]
          ~doc:
            "Run the large-n decade sweeps (t1l/t5l) through the parallel \
             engine instead of the kernel microbenches.")
  in
  let bench_trials_t =
    Arg.(
      value & opt int 3
      & info [ "trials" ] ~docv:"N"
          ~doc:
            "Trials per decade for $(b,--large) (attenuated \
             deterministically on the top decades).")
  in
  let store_t =
    Arg.(
      value & opt string "_bench_large"
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "JSONL trial store for $(b,--large) (crash-safe; resumable \
             with $(b,--resume)).")
  in
  let max_n_t =
    Arg.(
      value & opt int 100_000_000
      & info [ "max-n" ] ~docv:"N"
          ~doc:"Top decade of the t1l grid for $(b,--large).")
  in
  let max_k_t =
    Arg.(
      value & opt int 10_000_000
      & info [ "max-k" ] ~docv:"K"
          ~doc:"Top decade of the t5l contention grid for $(b,--large).")
  in
  Cmd.v (Cmd.info "bench" ~doc ~man ~exits:finding_exits)
    Term.(
      const bench $ artifact_t ~threshold:0.25 $ seed_t $ scale_t $ large_t
      $ bench_trials_t $ jobs_t $ store_t $ resume_t $ max_n_t $ max_k_t)

(* ------------------------------------------------------------------ *)
(* load: open-loop Poisson load against a running renamed daemon *)

let load_daemon flags socket mode conns clients rate duration hold_const
    hold_mean deadline drain_timeout seed =
  (* A daemon crash mid-run must surface as reconnect accounting, not
     kill the generator with SIGPIPE on its next buffered write. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let hold =
    match hold_const with
    | Some s -> Service.Load_gen.Const s
    | None -> Service.Load_gen.Exponential hold_mean
  in
  let cfg =
    {
      (Service.Load_gen.default_config ~path:socket) with
      mode;
      conns;
      clients;
      rate;
      duration_s = duration;
      hold;
      seed;
      deadline_ms = deadline;
      drain_timeout_s = drain_timeout;
      log = (fun s -> Printf.eprintf "[load] %s\n%!" s);
    }
  in
  (* The artifact records the server's geometry; ask it. *)
  let geometry =
    Result.bind (Service.Client.stats_once ~path:socket) (fun f ->
        match (Jsonu.int_ f "shards", Jsonu.int_ f "capacity") with
        | g -> Ok g
        | exception Jsonu.Malformed -> Error "stats reply missing geometry")
  in
  match geometry with
  | Error e ->
    Printf.eprintf "[load] %s\n%!" e;
    2
  | Ok (shards, capacity) -> (
    match Service.Load_gen.run cfg with
    | Error e ->
      Printf.eprintf "[load] %s\n%!" e;
      2
    | Ok r ->
      emit_artifact ~tag:"load" flags Service.Service_bench.kind
        (Service.Service_bench.of_run ~shards ~capacity ~cfg r))

let load_cmd =
  let doc =
    "Drive open-loop Poisson load at a running renamed daemon and record \
     a BENCH_SERVICE_<k>.json latency artifact."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Acquire arrivals follow a Poisson process at $(b,--rate); each \
         granted name is held for a sampled duration and released.  \
         Arrivals are posted on schedule whether or not earlier \
         operations completed (open loop), and acquire latency is \
         measured from the scheduled arrival, so queueing delay is \
         never hidden.  The run audits uniqueness (no name granted \
         twice while held) and slot conservation (server taken count \
         is zero after the final drain).  Audit failures exit 1, with \
         or without $(b,--check): violations, leaks, errors, timeouts, \
         no acquires, or latency quantiles out of order.";
      `P
        "Every invocation writes the next free BENCH_SERVICE_<k>.json \
         under $(b,--out); BENCH_SERVICE_0.json is the committed \
         baseline CI diffs against with $(b,--check), which gates on \
         the audit invariants and on throughput relative to the \
         baseline — absolute latency is recorded but never gated.";
    ]
  in
  let socket_t =
    Arg.(
      value
      & opt string "renamed.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"The daemon's socket path.")
  in
  let mode_t =
    Arg.(
      value
      & opt
          (enum [ ("binary", Service.Wire.Binary); ("json", Service.Wire.Json) ])
          Service.Wire.Binary
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Wire mode: $(b,binary) (native) or $(b,json) (line-JSON).")
  in
  let rate_t =
    Arg.(
      value & opt float 1000.
      & info [ "rate" ] ~docv:"OPS"
          ~doc:"Target acquire arrivals per second (Poisson).")
  in
  let duration_t =
    Arg.(
      value & opt float 5.
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Load window length.")
  in
  let hold_const_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "hold-const" ] ~docv:"SECONDS"
          ~doc:"Hold every name for exactly $(docv) (overrides --hold-mean).")
  in
  let hold_mean_t =
    Arg.(
      value & opt float 0.001
      & info [ "hold-mean" ] ~docv:"SECONDS"
          ~doc:"Mean of the exponential hold-time distribution.")
  in
  Cmd.v (Cmd.info "load" ~doc ~man ~exits:finding_exits)
    Term.(
      const load_daemon $ artifact_t ~threshold:0.5 $ socket_t $ mode_t
      $ conns_t $ clients_t $ rate_t $ duration_t $ hold_const_t $ hold_mean_t
      $ deadline_t ~default:0 $ drain_timeout_t $ seed_t)

let report_cmd =
  let doc = "Run every experiment and write a self-contained markdown report." in
  let out_t =
    Arg.(
      value & opt string "report.md"
      & info [ "out" ] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const report $ out_t $ seed_t $ trials_t $ scale_t)

let main_cmd =
  let doc =
    "Reproduction harness for `Randomized loose renaming in O(log log n) \
     time' (PODC 2013)."
  in
  Cmd.group
    (Cmd.info "repro_cli" ~version:"1.0.0" ~doc)
    [ list_cmd; run_cmd; all_cmd; simulate_cmd; verify_cmd; bench_cmd;
      load_cmd; report_cmd; doctor_cmd; racecheck_cmd;
      modelcheck_cmd; chaos_cmd ]

let () =
  (* Before anything can raise: engine failure lines carry the
     backtrace of the job's exception only while recording is on. *)
  Printexc.record_backtrace true;
  exit (Cmd.eval' main_cmd)
