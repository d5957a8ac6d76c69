(* Command-line driver for the reproduction experiments.

   repro_cli list                      enumerate experiments
   repro_cli run t1 t5 --trials 10     run selected experiments
   repro_cli all --scale 0.5           run everything, half-size
   Add --csv DIR to also write each table as DIR/<id>_<k>.csv.

   With --out DIR the run goes through the parallel engine instead:
   trial jobs fan out across --jobs N domains, every trial lands as one
   JSONL record in DIR/<id>.jsonl (plus DIR/manifest.json), and --resume
   skips jobs already present there.  Per-job seeds are derived
   deterministically from (seed, experiment, sweep point, trial), so any
   --jobs value produces identical records.  Without --out, the serial
   path below runs exactly as it always has.

   The engine path is fault-tolerant: a raising job retries up to
   --retries times (per-attempt seeds, deterministic), then quarantines
   into DIR/<id>.failures.jsonl while the other jobs complete;
   --job-timeout bounds each attempt, with a watchdog abandoning truly
   stuck workers; SIGINT/SIGTERM drain in-flight jobs and print the
   exact --resume command; --resume is validated against the stored
   manifest and continues interrupted retry budgets.  repro_cli doctor
   DIR audits a store offline (truncated tails, duplicate keys, seed
   re-derivation, quarantine). *)

let make_ctx ~seed ~trials ~scale ~substrate ~csv_dir ~current_id =
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
    substrate;
    emit_table;
    log = print_endline;
  }

let run_serial ids seed trials scale substrate csv_dir =
  (match csv_dir with
  | Some dir ->
    if Sys.file_exists dir && not (Sys.is_directory dir) then begin
      Printf.eprintf "--csv: %s exists and is not a directory\n" dir;
      exit 1
    end;
    Engine.Sink.mkdir_p dir
  | None -> ());
  let current_id = ref "" in
  let ctx = make_ctx ~seed ~trials ~scale ~substrate ~csv_dir ~current_id in
  let failures = ref [] in
  List.iter
    (fun id ->
      match Harness.Registry.find id with
      | None ->
        Printf.eprintf "unknown experiment %S; try `repro_cli list'\n" id;
        failures := id :: !failures
      | Some e ->
        current_id := e.Harness.Experiment.id;
        Printf.printf "\n=== %s: %s ===\n" (String.uppercase_ascii e.id) e.title;
        Printf.printf "claim: %s\n" e.claim;
        let t0 = Unix.gettimeofday () in
        e.run ctx;
        Printf.printf "[%s done in %.1fs]\n" e.id (Unix.gettimeofday () -. t0))
    ids;
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

(* The engine path: fan trial jobs out across domains into a JSONL store.
   Experiments without a job-grain port fall back to the serial runner so
   `all --out DIR` still covers the whole registry. *)
let run_engine ids seed trials scale substrate csv_dir out_dir workers resume
    retries job_timeout =
  if Sys.file_exists out_dir && not (Sys.is_directory out_dir) then begin
    Printf.eprintf "--out: %s exists and is not a directory\n" out_dir;
    exit 1
  end;
  (* Resuming against a store written with different parameters would
     silently mix incompatible records; refuse up front. *)
  (if resume then
     match Engine.Sink.read_manifest ~dir:out_dir with
     | None -> ()
     | Some manifest -> (
       match
         Engine.Checkpoint.validate_manifest ~manifest ~ids ~seed ~trials
           ~scale
       with
       | Ok () -> ()
       | Error msg ->
         Printf.eprintf "--resume: %s\n" msg;
         exit 1));
  Engine.Sink.mkdir_p out_dir;
  let ctx = Harness.Experiment.default_ctx ~seed ~trials ~scale ~substrate () in
  install_signal_handlers ();
  let should_stop () = Atomic.get interrupt_requested in
  let manifest status =
    Engine.Plan.write_manifest ~out_dir ~ids ~workers ~resume ~status ~retries
      ~job_timeout ~ctx
  in
  manifest "running";
  let failures = ref [] in
  let quarantined = ref [] in
  let serial_fallback = ref [] in
  List.iter
    (fun id ->
      if not (should_stop ()) then
        match Harness.Registry.find id with
        | None ->
          Printf.eprintf "unknown experiment %S; try `repro_cli list'\n" id;
          failures := id :: !failures
        | Some e -> (
          let t0 = Unix.gettimeofday () in
          match
            Engine.Plan.execute ~workers ~resume ~retries ?job_timeout
              ~should_stop ~out_dir ~ctx e
          with
          | Some o ->
            Printf.printf
              "[%s: %d jobs (%d skipped via resume, %d executed) -> %s in \
               %.1fs]\n\
               %!"
              o.Engine.Plan.experiment o.total_jobs o.skipped o.executed
              o.store
              (Unix.gettimeofday () -. t0);
            if o.Engine.Plan.malformed > 0 then
              Printf.printf
                "[%s: %d malformed mid-file line(s) skipped on resume — \
                 audit with `repro_cli doctor %s']\n\
                 %!"
                id o.Engine.Plan.malformed out_dir;
            if o.Engine.Plan.quarantined > 0 then begin
              Printf.printf
                "[%s: %d job(s) quarantined after %d failed attempt(s) -> \
                 %s]\n\
                 %!"
                id o.Engine.Plan.quarantined o.Engine.Plan.failures
                o.Engine.Plan.failures_store;
              quarantined :=
                !quarantined @ List.map (fun k -> (id, k)) o.failed_keys
            end
          | None ->
            Printf.eprintf "[%s has no job-grain port yet; running serially]\n%!"
              e.Harness.Experiment.id;
            serial_fallback := id :: !serial_fallback
          | exception Failure msg ->
            Printf.eprintf "[%s FAILED: %s]\n%!" id msg;
            failures := id :: !failures))
    ids;
  let interrupted = should_stop () in
  manifest (if interrupted then "interrupted" else "completed");
  if interrupted then begin
    let opts =
      Printf.sprintf "--seed %d --trials %d --scale %g --jobs %d --retries %d%s"
        seed trials scale workers retries
        (match job_timeout with
        | None -> ""
        | Some t -> Printf.sprintf " --job-timeout %g" t)
    in
    Printf.eprintf
      "[interrupted] store finalized; resume with:\n\
      \  repro_cli run %s %s --out %s --resume\n\
       %!"
      (String.concat " " ids) opts out_dir;
    130
  end
  else begin
    if !quarantined <> [] then
      Printf.eprintf "[%d job(s) quarantined: %s]\n%!"
        (List.length !quarantined)
        (String.concat " " (List.map snd !quarantined));
    let serial_rc =
      match List.rev !serial_fallback with
      | [] -> 0
      | fallback -> run_serial fallback seed trials scale substrate csv_dir
    in
    if !failures <> [] || !quarantined <> [] then 1 else serial_rc
  end

let run_experiments ids seed trials scale substrate csv_dir jobs out_dir resume
    retries job_timeout =
  match
    List.filter (fun id -> Harness.Registry.find id = None) ids
  with
  | _ :: _ as unknown ->
    Printf.eprintf "unknown experiment(s) %s; try `repro_cli list'\n"
      (String.concat ", " unknown);
    2
  | [] -> (
    match (out_dir, jobs, resume) with
    | None, None, false -> run_serial ids seed trials scale substrate csv_dir
    | None, Some _, _ | None, _, true ->
      Printf.eprintf "--jobs/--resume require --out DIR (the JSONL store)\n";
      2
    | Some out, _, _ ->
      let workers =
        match jobs with
        | Some j -> max 1 j
        | None -> Engine.Pool.default_workers ()
      in
      run_engine ids seed trials scale substrate csv_dir out workers resume
        retries job_timeout)

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

let simulate algo_name n seed adversary_name crash_fraction stagger substrate
    histogram =
  match make_spec algo_name ~n ~t0:3 ~epsilon:1.0 with
  | Error msg ->
    prerr_endline msg;
    Printf.eprintf "algorithms: %s\n" (String.concat ", " algo_names);
    2
  | Ok spec ->
    (match Sim.Adversary.by_name adversary_name with
    | None ->
      Printf.eprintf "unknown adversary %S; one of: %s\n" adversary_name
        (String.concat ", "
           (List.map (fun a -> a.Sim.Adversary.name) Sim.Adversary.all_builtin));
      2
    | Some adversary -> (
      let plain = crash_fraction <= 0. && stagger = None in
      let finish ~adversary_label r =
        Printf.printf
          "algo=%s n=%d seed=%d adversary=%s substrate=%s\nunique=%b \
           max_name=%d max_steps=%d total_steps=%d crashes=%d \
           point_contention=%d space_used=%d\n"
          algo_name n seed adversary_label
          (Harness.Substrate.to_string substrate)
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
        if Sim.Runner.check_unique_names r then 0 else 1
      in
      (* The fast core only expresses the uniformly random oblivious
         schedule, and the atomic cells only a sequential one; richer
         schedules need the effects scheduler. *)
      match substrate with
      | Harness.Substrate.Fast when adversary_name = "random" && plain ->
        finish ~adversary_label:"random"
          (Harness.Substrate.run Harness.Substrate.Fast spec ~seed ~n ())
      | Harness.Substrate.Fast ->
        Printf.eprintf
          "--substrate fast supports only --adversary random without \
           --crash-fraction/--stagger; use --substrate effects\n";
        2
      | Harness.Substrate.Atomic when adversary_name = "sequential" && plain ->
        finish ~adversary_label:"sequential"
          (Harness.Substrate.run_sequential ~shuffled:false
             Harness.Substrate.Atomic spec ~seed ~n ())
      | Harness.Substrate.Atomic ->
        Printf.eprintf
          "--substrate atomic supports only --adversary sequential without \
           --crash-fraction/--stagger; use --substrate effects\n";
        2
      | Harness.Substrate.Effects ->
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
        finish ~adversary_label:adversary.Sim.Adversary.name
          (Sim.Runner.run ~adversary ~seed ~n
             ~algo:(Harness.Substrate.closure spec) ())))

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

let report out seed trials scale substrate =
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "# Experiment report\n\n";
  p
    "Generated by `repro_cli report` — seed %d, trials %d, scale %.2f, \
     substrate %s.  See DESIGN.md for the experiment index and \
     EXPERIMENTS.md for the recorded full-scale analysis.\n"
    seed trials scale
    (Harness.Substrate.to_string substrate);
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
      substrate;
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
      e.Harness.Experiment.run ctx)
    Harness.Registry.all;
  close_code ();
  close_out oc;
  Printf.printf "report written to %s\n" out;
  0

let save_text ~file text =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc text;
      output_char oc '\n')

let read_text file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* doctor: audit a result store for integrity problems *)

let doctor dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "doctor: %s is not a directory\n" dir;
    2
  end
  else begin
    let problems = ref 0 in
    let notes = ref 0 in
    let problem fmt =
      incr problems;
      Printf.ksprintf (fun s -> Printf.printf "PROBLEM  %s\n" s) fmt
    in
    let note fmt =
      incr notes;
      Printf.ksprintf (fun s -> Printf.printf "note     %s\n" s) fmt
    in
    let manifest = Engine.Sink.read_manifest ~dir in
    let mfield name =
      Option.bind manifest (fun m -> List.assoc_opt name m)
    in
    (match manifest with
    | None ->
      note "no readable manifest.json — seed-tree checks skipped"
    | Some _ -> (
      (match mfield "schema" with
      | Some s when s <> Engine.Sink.schema_version ->
        problem "manifest schema is %S; this binary writes %S" s
          Engine.Sink.schema_version
      | Some _ -> ()
      | None -> note "manifest has no schema field (pre-fault-tolerance run)");
      (match mfield "status" with
      | Some "interrupted" ->
        note "run status is \"interrupted\" — finish it with --resume"
      | Some "running" ->
        note
          "run status is \"running\" — either a run is live or it was \
           killed without cleanup (resume is safe)"
      | _ -> ());
      match mfield "git" with
      | Some g -> Printf.printf "manifest: git %s\n" g
      | None -> ()));
    (* Host parallelism: chaos and racecheck results depend on how many
       domains actually ran, so record what this machine provides and
       the cap the runner will apply. *)
    Printf.printf
      "host: Domain.recommended_domain_count=%d, runner default domains=%d\n"
      (Domain.recommended_domain_count ())
      (Shm.Domain_runner.default_domains ());
    let root_seed = Option.bind (mfield "seed") int_of_string_opt in
    let stores =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             Filename.check_suffix f ".jsonl"
             && not (Filename.check_suffix f ".failures.jsonl"))
      |> List.sort compare
    in
    if stores = [] then note "no .jsonl stores in %s" dir;
    List.iter
      (fun file ->
        let experiment = Filename.chop_suffix file ".jsonl" in
        let path = Filename.concat dir file in
        let scan = Engine.Checkpoint.scan_store path in
        Printf.printf "%s: %d record(s), %d distinct key(s)\n" file
          scan.Engine.Checkpoint.records
          (Hashtbl.length scan.Engine.Checkpoint.keys);
        if scan.Engine.Checkpoint.duplicates > 0 then
          problem "%s: %d duplicate key(s)" file
            scan.Engine.Checkpoint.duplicates;
        if scan.Engine.Checkpoint.malformed_mid > 0 then
          problem "%s: %d malformed mid-file line(s)" file
            scan.Engine.Checkpoint.malformed_mid;
        if scan.Engine.Checkpoint.malformed_tail then
          note
            "%s: truncated tail line (crash artifact; --resume repairs \
             and re-runs it)"
            file;
        (* Every record's seed must be re-derivable from the manifest's
           root seed and the record's own coordinates. *)
        (match root_seed with
        | None -> ()
        | Some root ->
          let mismatches = ref 0 in
          List.iter
            (fun (r : Engine.Sink.record) ->
              let expect =
                Engine.Seed_tree.derive_attempt ~root
                  ~experiment:r.Engine.Sink.experiment
                  ~sweep_point:r.Engine.Sink.sweep_point
                  ~trial:r.Engine.Sink.trial ~attempt:r.Engine.Sink.attempt
              in
              if expect <> r.Engine.Sink.seed then incr mismatches)
            (Engine.Checkpoint.records path);
          if !mismatches > 0 then
            problem
              "%s: %d record(s) whose seed does not match the seed tree \
               (wrong --seed, or records from another run mixed in)"
              file !mismatches);
        let fpath =
          Engine.Fault.store_path ~dir ~experiment
        in
        if Sys.file_exists fpath then begin
          let counts = Engine.Fault.attempt_counts fpath in
          let total = List.length (Engine.Fault.load fpath) in
          note "%s: quarantine holds %d failure record(s) across %d job(s)"
            file total (Hashtbl.length counts);
          (* Sorted: quarantine keys must print in a stable order, not
             in Hashtbl bucket order. *)
          Hashtbl.to_seq counts |> List.of_seq
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          |> List.iter (fun (key, attempts) ->
                 let completed = Hashtbl.mem scan.Engine.Checkpoint.keys key in
                 Printf.printf "           %s: %d failed attempt(s)%s\n" key
                   attempts
                   (if completed then " (later succeeded)" else " (no record)"))
        end)
      stores;
    (* Chaos artifacts: recorded fault plans must parse and re-encode
       canonically (the replay contract), and a recorded verdict is a
       captured invariant violation until someone fixes it. *)
    let chaos_files prefix =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             String.starts_with ~prefix f && Filename.check_suffix f ".json")
      |> List.sort compare
    in
    let plan_seeds = Hashtbl.create 8 in
    List.iter
      (fun file ->
        let path = Filename.concat dir file in
        match Chaos.Fault_plan.load ~file:path with
        | Error e -> problem "%s: unreadable chaos plan: %s" file e
        | Ok plan ->
          Hashtbl.replace plan_seeds plan.Chaos.Fault_plan.seed ();
          Printf.printf
            "%s: plan seed=%d algo=%s procs=%d domains=%d crash_frac=%g\n"
            file plan.Chaos.Fault_plan.seed plan.Chaos.Fault_plan.algo
            plan.Chaos.Fault_plan.procs plan.Chaos.Fault_plan.domains
            plan.Chaos.Fault_plan.crash_frac;
          if
            String.trim (read_text path) <> Chaos.Fault_plan.to_json plan
          then
            problem "%s: not in canonical form — replay would re-record \
                     different bytes (hand-edited?)"
              file)
      (chaos_files "chaos_plan_");
    List.iter
      (fun file ->
        let path = Filename.concat dir file in
        match Chaos.Chaos_runner.summary_of_json (String.trim (read_text path)) with
        | Error e -> problem "%s: unreadable chaos verdict: %s" file e
        | Ok s ->
          Printf.printf "%s: verdict seed=%d %s\n" file
            s.Chaos.Chaos_runner.seed
            (if s.Chaos.Chaos_runner.ok then "ok" else "VIOLATED");
          if not (Hashtbl.mem plan_seeds s.Chaos.Chaos_runner.seed) then
            note
              "%s: verdict for seed %d has no matching chaos_plan_%d.json \
               (not replayable)"
              file s.Chaos.Chaos_runner.seed s.Chaos.Chaos_runner.seed;
          if not s.Chaos.Chaos_runner.ok then
            problem "%s: recorded invariant violation(s): %s" file
              (String.concat ", " s.Chaos.Chaos_runner.violations))
      (chaos_files "chaos_verdict_");
    (* Model-check counterexamples: a *.cex.json must carry the current
       schema, re-encode to the same bytes (the replay contract), and
       strict-replay to its recorded violation.  One that names a model
       or mutation this binary no longer knows is orphaned; one with NO
       mutation is a captured violation of the real system and stays a
       problem until someone fixes it. *)
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cex.json")
    |> List.sort compare
    |> List.iter (fun file ->
           let path = Filename.concat dir file in
           match Mcheck.Worlds.audit_fixture_replay (read_text path) with
           | Error e -> problem "%s: model-check counterexample: %s" file e
           | Ok fx ->
             Printf.printf
               "%s: cex model=%s mutation=%s, %d-step schedule replays\n" file
               fx.Analysis.Explore.fx_model
               (Option.value fx.Analysis.Explore.fx_mutation ~default:"none")
               (List.length fx.Analysis.Explore.fx_schedule);
             if fx.Analysis.Explore.fx_mutation = None then
               problem
                 "%s: counterexample against the unmutated model — a real \
                  captured bug: %s"
                 file fx.Analysis.Explore.fx_violation);
    (* Service artifacts: a socket file with no daemon behind it is a
       crash leftover (a graceful drain unlinks it), and every recorded
       load artifact must parse and carry a clean audit. *)
    let live_socket = ref false in
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sock")
    |> List.sort compare
    |> List.iter (fun file ->
           let path = Filename.concat dir file in
           let probe = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
           (match Unix.connect probe (ADDR_UNIX path) with
           | () ->
             live_socket := true;
             note "%s: a live renamed daemon is serving" file;
             (* Overload telemetry: a queue peak past the admission
                bound means the bound is not enforced — the daemon's
                queues are growing without limit. *)
             (match Service.Client.connect ~path () with
             | Error _ -> ()
             | Ok c ->
               (match Service.Client.stats c with
               | Error _ -> ()
               | Ok j -> (
                 let f = Jsonu.obj j in
                 match List.assoc_opt "overload" f with
                 | None -> ()
                 | Some o ->
                   let ov = Jsonu.obj o in
                   let peak =
                     try Jsonu.int_ f "queue_peak"
                     with Jsonu.Malformed -> 0
                   in
                   let bound =
                     try Jsonu.int_ ov "queue_bound"
                     with Jsonu.Malformed -> max_int
                   in
                   let level =
                     try Jsonu.str ov "level"
                     with Jsonu.Malformed -> "healthy"
                   in
                   if peak > bound then
                     problem
                       "%s: daemon reports queue peak %d past its %d \
                        admission bound — queues are growing without bound"
                       file peak bound;
                   if level <> "healthy" then
                     note "%s: daemon is %s (deepest queue seen %d/%d)"
                       file level peak bound));
               Service.Client.close c)
           | exception Unix.Unix_error (ECONNREFUSED, _, _) ->
             problem
               "%s: stale socket file — the daemon behind it crashed \
                (a graceful drain unlinks its socket); remove it or let \
                renamed reclaim it"
               file
           | exception Unix.Unix_error (e, _, _) ->
             problem "%s: socket probe failed: %s" file (Unix.error_message e));
           try Unix.close probe with Unix.Unix_error _ -> ());
    (* Crash journals: damage (a CRC failure on a complete record) makes
       recovery refuse to boot, and live grants in a journal nobody is
       serving are names some client may still believe it holds. *)
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".journal")
    |> List.sort compare
    |> List.iter (fun file ->
           let path = Filename.concat dir file in
           match Service.Journal.scan ~path with
           | Error e -> problem "%s: unreadable journal: %s" file e
           | Ok s ->
             let live = Service.Journal.replay s.Service.Journal.records in
             Printf.printf
               "%s: %d record(s), %d live grant(s), next epoch %d\n" file
               (List.length s.Service.Journal.records)
               (List.length live.Service.Journal.grants)
               live.Service.Journal.next_epoch;
             if s.Service.Journal.damaged > 0 then
               problem
                 "%s: %d damaged record(s) (CRC/framing on a complete \
                  record) — renamed --recover will refuse this journal"
                 file s.Service.Journal.damaged;
             if s.Service.Journal.torn_tail then
               note
                 "%s: torn tail record (crash artifact; --recover \
                  tolerates and compacts it away)"
                 file;
             if live.Service.Journal.double_grants > 0 then
               problem
                 "%s: replay observed %d duplicate grant(s) of a live \
                  name — the write-ahead discipline was violated"
                 file live.Service.Journal.double_grants;
             if live.Service.Journal.grants <> [] && not !live_socket then
               note
                 "%s: %d live grant(s) and no daemon serving in this \
                  directory — orphaned journal; restart renamed with \
                  --journal %s --recover"
                 file
                 (List.length live.Service.Journal.grants)
                 file);
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_SERVICE_" f
           && Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.iter (fun file ->
           let path = Filename.concat dir file in
           match Service.Service_bench.load path with
           | exception Jsonu.Malformed -> (
             (* The BENCH_SERVICE_<k> numbering is shared with the
                kill/restart soak's bench-service-recovery artifacts
                and the overload soak's bench-service-overload ones. *)
             match Service.Recovery_bench.load path with
             | exception Jsonu.Malformed -> (
               match Service.Overload_bench.load path with
               | exception Jsonu.Malformed ->
                 problem
                   "%s: not a bench-service, bench-service-recovery or \
                    bench-service-overload JSON document (schema drift?)"
                   file
               | exception Sys_error e -> problem "%s: unreadable: %s" file e
               | a ->
                 Printf.printf
                   "%s: overload soak, %.1fx capacity %.0f/s: goodput \
                    %.0f/s, %d shed, %d expired, level %s\n"
                   file a.Service.Overload_bench.overdrive
                   a.Service.Overload_bench.capacity_ops
                   a.Service.Overload_bench.goodput_daemon
                   a.Service.Overload_bench.shed
                   a.Service.Overload_bench.expired
                   a.Service.Overload_bench.level;
                 if
                   a.Service.Overload_bench.violations <> 0
                   || a.Service.Overload_bench.leaked > 0
                   || a.Service.Overload_bench.errors <> 0
                   || a.Service.Overload_bench.timeouts <> 0
                   || not a.Service.Overload_bench.drain_complete
                 then
                   problem
                     "%s: recorded audit failures (%d violation(s), %d \
                      leaked, %d error(s), %d timeout(s), drain %s)"
                     file a.Service.Overload_bench.violations
                     a.Service.Overload_bench.leaked
                     a.Service.Overload_bench.errors
                     a.Service.Overload_bench.timeouts
                     (if a.Service.Overload_bench.drain_complete then
                        "complete"
                      else "cut short");
                 if
                   a.Service.Overload_bench.queue_peak
                   > a.Service.Overload_bench.queue_bound
                 then
                   problem
                     "%s: recorded queue peak %d past the %d admission \
                      bound — queues grew without limit during the soak"
                     file a.Service.Overload_bench.queue_peak
                     a.Service.Overload_bench.queue_bound)
             | exception Sys_error e -> problem "%s: unreadable: %s" file e
             | a ->
               Printf.printf
                 "%s: recovery soak, %d cycle(s) x %.0f/s: p99 %.0f ms, \
                  %d reconnect(s)\n"
                 file a.Service.Recovery_bench.cycles
                 a.Service.Recovery_bench.rate
                 a.Service.Recovery_bench.recovery_p99_ms
                 a.Service.Recovery_bench.reconnects;
               if
                 a.Service.Recovery_bench.duplicate_grants <> 0
                 || a.Service.Recovery_bench.leaked_after_expiry <> 0
                 || a.Service.Recovery_bench.violations <> 0
                 || a.Service.Recovery_bench.errors <> 0
                 || a.Service.Recovery_bench.timeouts <> 0
                 || a.Service.Recovery_bench.journal_damaged <> 0
                 || a.Service.Recovery_bench.daemon_exit <> 0
               then
                 problem
                   "%s: recorded recovery-audit failures (%d duplicate \
                    grant(s), %d leaked after expiry, %d violation(s), \
                    %d error(s), %d timeout(s), %d damaged, exit %d)"
                   file a.Service.Recovery_bench.duplicate_grants
                   a.Service.Recovery_bench.leaked_after_expiry
                   a.Service.Recovery_bench.violations
                   a.Service.Recovery_bench.errors
                   a.Service.Recovery_bench.timeouts
                   a.Service.Recovery_bench.journal_damaged
                   a.Service.Recovery_bench.daemon_exit)
           | exception Sys_error e -> problem "%s: unreadable: %s" file e
           | a ->
             Printf.printf
               "%s: %.0f/s x %.1fs on %d shard(s): %.0f op/s, p99 %.1fus\n"
               file a.Service.Service_bench.rate
               a.Service.Service_bench.duration_s
               a.Service.Service_bench.shards
               a.Service.Service_bench.throughput
               (float_of_int a.Service.Service_bench.lat_p99 /. 1e3);
             if
               a.Service.Service_bench.violations <> 0
               || a.Service.Service_bench.leaked > 0
               || a.Service.Service_bench.errors <> 0
               || a.Service.Service_bench.timeouts <> 0
             then
               problem
                 "%s: recorded audit failures (%d violation(s), %d leaked, \
                  %d error(s), %d timeout(s))"
                 file a.Service.Service_bench.violations
                 a.Service.Service_bench.leaked a.Service.Service_bench.errors
                 a.Service.Service_bench.timeouts);
    (* Kernel / large-n benchmark artifacts: BENCH_<k>.json numbering is
       shared between the kind="bench" microbench suites and the
       kind="bench-large" decade sweeps; dispatch on the kind field. *)
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           Scanf.sscanf_opt f "BENCH_%d.json%!" (fun i -> i) <> None)
    |> List.sort compare
    |> List.iter (fun file ->
           let path = Filename.concat dir file in
           match Engine.Sweep.load path with
           | Some a ->
             let series =
               List.sort_uniq compare
                 (List.map
                    (fun r -> (r.Engine.Sweep.experiment, r.Engine.Sweep.series))
                    a.Engine.Sweep.rows)
             in
             Printf.printf
               "%s: bench-large sweep, seed=%d, %d row(s) across %d series\n"
               file a.Engine.Sweep.seed
               (List.length a.Engine.Sweep.rows)
               (List.length series);
             List.iter (fun p -> problem "%s: %s" file p)
               (Engine.Sweep.audit a)
           | None -> (
             match Bench_kernels.load path with
             | exception Jsonu.Malformed ->
               problem
                 "%s: neither a bench nor a bench-large JSON document \
                  (schema drift?)"
                 file
             | exception Sys_error e -> problem "%s: unreadable: %s" file e
             | s ->
               Printf.printf "%s: kernel bench, seed=%d, %d kernel(s)\n" file
                 s.Bench_kernels.seed
                 (List.length s.Bench_kernels.kernels);
               if s.Bench_kernels.kernels = [] then
                 problem "%s: bench artifact has no kernels" file;
               List.iter
                 (fun (k : Bench_kernels.kernel) ->
                   if
                     not
                       (Float.is_finite k.Bench_kernels.ns_per_op
                       && Float.is_finite k.Bench_kernels.words_per_op)
                   then
                     problem "%s: kernel %s has non-finite measurements" file
                       k.Bench_kernels.name;
                   if
                     List.mem k.Bench_kernels.name Bench_kernels.zero_alloc_kernels
                     && k.Bench_kernels.words_per_op
                        > Bench_kernels.zero_alloc_budget
                   then
                     problem
                       "%s: fast kernel %s records %.3f words/op (budget %.2f)"
                       file k.Bench_kernels.name k.Bench_kernels.words_per_op
                       Bench_kernels.zero_alloc_budget)
                 s.Bench_kernels.kernels));
    Printf.printf "doctor: %d problem(s), %d note(s)\n" !problems !notes;
    if !problems = 0 then 0 else 1
  end

(* ------------------------------------------------------------------ *)
(* lint: AST-level determinism lint over the source tree *)

let lint json root paths =
  Analysis.Lint.run ~json ~root ~paths ~out:print_string ()

(* ------------------------------------------------------------------ *)
(* racecheck: happens-before certification of multicore executions *)

(* The algorithm table lives in Chaos.Algos so racecheck, the chaos
   commands and recorded fault plans all interpret an algorithm name the
   same way. *)
let racecheck_algo_names = Chaos.Algos.names
let make_shm_algo name ~n ~t0 = Chaos.Algos.make name ~n ~t0 ()

(* A deliberately racy execution for demonstrating the checker: two
   domains plain-write the same location with no synchronization edge
   between them, so their vector clocks are incomparable regardless of
   interleaving and the monitor must report a race. *)
let racecheck_racy_demo () =
  let sp = Analysis.Hb_space.create ~mode:Analysis.Hb.Collect ~capacity:4 () in
  let worker () = Analysis.Hb_space.write_plain sp "shared-counter" in
  (* Raw spawns on purpose: the demo's point is exactly that nothing
     orders the two writes.  repro-lint: allow domain-spawn *)
  let handles = Array.init 2 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join handles;
  match Analysis.Hb_space.races sp with
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
    match make_shm_algo algo_name ~n:procs ~t0:3 with
    | Error msg ->
      Printf.eprintf "%s\nalgorithms: %s\n" msg
        (String.concat ", " racecheck_algo_names);
      2
    | Ok _ ->
      let dirty = ref 0 in
      for i = 0 to runs - 1 do
        let run_seed = seed + i in
        (* Fresh instance per run: the renaming structures are stateful. *)
        let algo, capacity =
          match make_shm_algo algo_name ~n:procs ~t0:3 with
          | Ok v -> v
          | Error _ -> assert false
        in
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

let chaos_plan_file ~dir ~seed =
  Filename.concat dir (Printf.sprintf "chaos_plan_%d.json" seed)

let chaos_verdict_file ~dir ~seed =
  Filename.concat dir (Printf.sprintf "chaos_verdict_%d.json" seed)

let chaos_record ~dir (o : Chaos.Chaos_runner.outcome) =
  let v = o.Chaos.Chaos_runner.verdict in
  let plan = v.Chaos.Chaos_runner.plan in
  let seed = plan.Chaos.Fault_plan.seed in
  Engine.Sink.mkdir_p dir;
  Chaos.Fault_plan.save ~file:(chaos_plan_file ~dir ~seed) plan;
  save_text
    ~file:(chaos_verdict_file ~dir ~seed)
    (Chaos.Chaos_runner.verdict_to_json v)

let chaos_print_outcome ~json (o : Chaos.Chaos_runner.outcome) =
  let v = o.Chaos.Chaos_runner.verdict in
  if json then print_endline (Chaos.Chaos_runner.verdict_to_json v)
  else begin
    let p = v.Chaos.Chaos_runner.plan in
    Printf.printf
      "seed=%d algo=%s procs=%d domains=%d crash_frac=%g: armed=%d fired=%d \
       survivors=%d names=%d max_name=%d leaked=%d\n"
      p.Chaos.Fault_plan.seed p.Chaos.Fault_plan.algo p.Chaos.Fault_plan.procs
      p.Chaos.Fault_plan.domains p.Chaos.Fault_plan.crash_frac
      (List.length p.Chaos.Fault_plan.crashes)
      (List.length v.Chaos.Chaos_runner.fired)
      v.Chaos.Chaos_runner.survivors v.Chaos.Chaos_runner.names_assigned
      v.Chaos.Chaos_runner.max_name v.Chaos.Chaos_runner.leaked;
    (match o.Chaos.Chaos_runner.races with
    | None -> ()
    | Some [] -> Printf.printf "happens-before: certified race-free\n"
    | Some races ->
      List.iter (fun r -> print_endline (Analysis.Hb.race_to_string r)) races;
      Printf.printf "happens-before: %d race(s)\n" (List.length races));
    match v.Chaos.Chaos_runner.violations with
    | [] -> Printf.printf "invariants: ok\n"
    | vs -> Printf.printf "invariants VIOLATED: %s\n" (String.concat ", " vs)
  end

let chaos_outcome_exit (o : Chaos.Chaos_runner.outcome) =
  let racy =
    match o.Chaos.Chaos_runner.races with Some (_ :: _) -> true | _ -> false
  in
  if Chaos.Chaos_runner.ok o.Chaos.Chaos_runner.verdict && not racy then 0
  else 1

let chaos_run algo_name procs domains seed crash_frac pause_frac name_bound out
    certify json =
  match Chaos.Algos.make algo_name ~n:procs () with
  | Error msg ->
    Printf.eprintf "%s\nalgorithms: %s\n" msg
      (String.concat ", " Chaos.Algos.names);
    2
  | Ok (algo, capacity) -> (
    let domains =
      match domains with
      | Some d -> d
      | None -> Shm.Domain_runner.default_domains ~procs ()
    in
    match
      Chaos.Fault_plan.make ~seed ~procs ~domains ~algo:algo_name ~capacity
        ?name_bound ~crash_frac ~pause_frac ()
    with
    | exception Invalid_argument msg ->
      Printf.eprintf "chaos run: %s\n" msg;
      2
    | plan ->
      let o = Chaos.Chaos_runner.run ~certify ~plan ~algo () in
      Option.iter (fun dir -> chaos_record ~dir o) out;
      chaos_print_outcome ~json o;
      chaos_outcome_exit o)

let chaos_soak_json ~runs ~failures ~violations =
  let open Engine.Sink.Json in
  to_string
    (Obj
       [
         ("kind", Str "chaos-soak");
         ("runs", Int runs);
         ("failing", Int (List.length failures));
         ("failing_seeds", Arr (List.map (fun (s, _) -> Int s) failures));
         ("ok", Bool (failures = []));
         ("violations", Arr (List.map (fun v -> Str v) violations));
       ])

(* Soak: many independent seeded runs cycling through the crash
   fractions.  A failing run's plan and verdict are recorded to --out,
   so any violation arrives as a committable regression fixture. *)
let chaos_soak algo_name procs domains seed runs fracs pause_frac out certify
    json =
  if runs < 1 || fracs = [] then begin
    Printf.eprintf "chaos soak: --runs must be >= 1 and --crash-fracs non-empty\n";
    2
  end
  else begin
    let failures = ref [] in
    let ran = ref 0 in
    let usage = ref None in
    (try
       for i = 0 to runs - 1 do
         let frac = List.nth fracs (i mod List.length fracs) in
         let run_seed = seed + i in
         match Chaos.Algos.make algo_name ~n:procs () with
         | Error msg -> usage := Some msg; raise Exit
         | Ok (algo, capacity) ->
           let domains =
             match domains with
             | Some d -> d
             | None -> Shm.Domain_runner.default_domains ~procs ()
           in
           let plan =
             Chaos.Fault_plan.make ~seed:run_seed ~procs ~domains
               ~algo:algo_name ~capacity ~crash_frac:frac ~pause_frac ()
           in
           let o = Chaos.Chaos_runner.run ~certify ~plan ~algo () in
           incr ran;
           if chaos_outcome_exit o <> 0 then begin
             failures := (run_seed, o) :: !failures;
             Option.iter (fun dir -> chaos_record ~dir o) out;
             if not json then chaos_print_outcome ~json:false o
           end
       done
     with
    | Exit -> ()
    | Invalid_argument msg -> usage := Some msg);
    match !usage with
    | Some msg ->
      Printf.eprintf "chaos soak: %s\n" msg;
      2
    | None ->
      let failures = List.rev !failures in
      let violations =
        List.sort_uniq compare
          (List.concat_map
             (fun (_, (o : Chaos.Chaos_runner.outcome)) ->
               o.Chaos.Chaos_runner.verdict.Chaos.Chaos_runner.violations)
             failures)
      in
      if json then
        print_endline (chaos_soak_json ~runs:!ran ~failures ~violations)
      else
        Printf.printf "chaos soak: %d run(s), %d violating (seeds: %s)%s\n"
          !ran
          (List.length failures)
          (match failures with
          | [] -> "none"
          | fs ->
            String.concat ", " (List.map (fun (s, _) -> string_of_int s) fs))
          (if violations = [] then ""
           else "; violations: " ^ String.concat ", " violations);
      if failures = [] then 0 else 1
  end

let chaos_replay file out certify json =
  match Chaos.Fault_plan.load ~file with
  | Error e ->
    Printf.eprintf "chaos replay: %s: %s\n" file e;
    2
  | Ok plan -> (
    (* Integrity: a recorded plan must be in canonical form — the replay
       byte-identity contract (`to_json (of_json s) = s`) is what makes
       committed fixtures trustworthy. *)
    if String.trim (read_text file) <> Chaos.Fault_plan.to_json plan then
      Printf.eprintf
        "chaos replay: warning: %s is not in canonical form (hand-edited?); \
         replaying its parsed content\n"
        file;
    match Chaos.Chaos_runner.run_plan ~certify plan with
    | Error e ->
      Printf.eprintf "chaos replay: %s\n" e;
      2
    | Ok o ->
      Option.iter (fun dir -> chaos_record ~dir o) out;
      chaos_print_outcome ~json o;
      chaos_outcome_exit o)

(* ------------------------------------------------------------------ *)
(* chaos service: SIGKILL/--recover soak of the real daemon under
   open-loop load, optionally through the wire-fault proxy *)

let status_describe = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %d" s

(* Nearest-rank percentile over an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

(* Accepting = a direct connect to the daemon socket succeeds; the
   daemon binds only after recovery completes, so this observes the
   full boot (or SIGKILL -> serving-again) interval. *)
let wait_accepting ~sock ~pid ~deadline =
  let rec go () =
    if Unix.gettimeofday () > deadline then
      Error "daemon did not accept within its startup deadline"
    else begin
      let probe = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      match Unix.connect probe (ADDR_UNIX sock) with
      | () ->
        Unix.close probe;
        Ok ()
      | exception Unix.Unix_error _ -> (
        (try Unix.close probe with Unix.Unix_error _ -> ());
        match Unix.waitpid [ WNOHANG ] pid with
        | 0, _ ->
          Unix.sleepf 0.005;
          go ()
        | _, status ->
          Error
            (Printf.sprintf "daemon died during startup (%s)"
               (status_describe status)))
    end
  in
  go ()

(* Resident set of a live process, from /proc (kB); -1 if unreadable. *)
let proc_rss_kb pid =
  match open_in (Printf.sprintf "/proc/%d/statm" pid) with
  | exception Sys_error _ -> -1
  | ic ->
    let r =
      match input_line ic with
      | exception End_of_file -> -1
      | line -> (
        match String.split_on_char ' ' line with
        | _ :: resident :: _ -> (
          match int_of_string_opt resident with
          | Some pages -> pages * 4 (* 4 KiB pages *)
          | None -> -1)
        | _ -> -1)
    in
    close_in ic;
    r

let chaos_service json cycles rate duration conns clients shards capacity
    lease_ttl seed wire_faults daemon keep out check threshold =
  (* The soak writes to sockets whose peer it is busy killing. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let log fmt =
    Printf.ksprintf (fun s -> Printf.eprintf "[soak] %s\n%!" s) fmt
  in
  let daemon_path =
    match daemon with
    | Some p -> p
    | None ->
      (* repro_cli and renamed are built side by side. *)
      Filename.concat (Filename.dirname Sys.executable_name) "renamed.exe"
  in
  if not (Sys.file_exists daemon_path) then begin
    log "no renamed binary at %s (build bin/ or pass --daemon)" daemon_path;
    2
  end
  else begin
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "renamed_soak_%d" (Unix.getpid ()))
    in
    Service.Service_bench.mkdir_p dir;
    let real_sock = Filename.concat dir "renamed.sock" in
    let proxy_sock = Filename.concat dir "proxy.sock" in
    let journal = Filename.concat dir "renamed.journal" in
    let spawn_daemon () =
      Unix.create_process daemon_path
        [|
          daemon_path; "--socket"; real_sock;
          "--shards"; string_of_int shards;
          "--capacity"; string_of_int capacity;
          "--lease-ttl"; Printf.sprintf "%g" lease_ttl;
          "--journal"; journal; "--recover"; "--quiet";
        |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    let wait_accepting = wait_accepting ~sock:real_sock in
    (* Journal audit, summed across compactions: each --recover boot
       rewrites the file down to its live grants, so every dead window
       (and the final drain) is scanned as its own segment. *)
    let jrecords = ref 0 and jtorn = ref 0 and jdamaged = ref 0 in
    let dups = ref 0 in
    let scan_segment tag =
      match Service.Journal.scan ~path:journal with
      | Error e ->
        log "%s: journal unreadable: %s" tag e;
        incr jdamaged
      | Ok s ->
        let live = Service.Journal.replay s.Service.Journal.records in
        jrecords := !jrecords + List.length s.Service.Journal.records;
        if s.Service.Journal.torn_tail then incr jtorn;
        jdamaged := !jdamaged + s.Service.Journal.damaged;
        dups := !dups + live.Service.Journal.double_grants;
        log "%s: %d record(s), %d live grant(s), %d duplicate(s)%s%s" tag
          (List.length s.Service.Journal.records)
          (List.length live.Service.Journal.grants)
          live.Service.Journal.double_grants
          (if s.Service.Journal.torn_tail then ", torn tail" else "")
          (if s.Service.Journal.damaged > 0 then
             Printf.sprintf ", %d DAMAGED" s.Service.Journal.damaged
           else "")
    in
    let cleanup () =
      if keep then log "keeping %s" dir
      else begin
        List.iter
          (fun f -> try Sys.remove f with Sys_error _ -> ())
          [ real_sock; proxy_sock; journal ];
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end
    in
    let pid = ref (spawn_daemon ()) in
    match wait_accepting ~pid:!pid ~deadline:(Unix.gettimeofday () +. 10.) with
    | Error e ->
      log "initial boot: %s" e;
      cleanup ();
      2
    | Ok () -> (
      let proxy =
        if not wire_faults then Ok None
        else
          let pcfg =
            {
              (Chaos.Wire_fault.default_config ~listen_path:proxy_sock
                 ~upstream_path:real_sock)
              with
              seed;
              log = (fun s -> Printf.eprintf "[proxy] %s\n%!" s);
            }
          in
          Result.map Option.some (Chaos.Wire_fault.start pcfg)
      in
      match proxy with
      | Error e ->
        log "proxy: %s" e;
        (try Unix.kill !pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] !pid);
        cleanup ();
        2
      | Ok proxy ->
        let load_cfg =
          {
            (Service.Load_gen.default_config
               ~path:(if wire_faults then proxy_sock else real_sock))
            with
            conns;
            clients;
            rate;
            duration_s = duration;
            hold = Service.Load_gen.Exponential 0.02;
            seed;
            (* Generous: every daemon kill costs each slot a burst of
               accept-then-reset retries against the proxy. *)
            reconnect_attempts = 50;
            reconnect_backoff = 0.02;
            log = (fun s -> Printf.eprintf "[load] %s\n%!" s);
          }
        in
        let load_res = ref (Error "load generator never ran") in
        (* The kill/restart loop below must run while the load does. *)
        let load_dom =
          (* repro-lint: allow domain-spawn — joined soak-driver domain *)
          Domain.spawn (fun () -> load_res := Service.Load_gen.run load_cfg)
        in
        let seg = duration /. float_of_int (cycles + 1) in
        let recov = Array.make (max 1 cycles) 0. in
        let failed = ref None in
        for i = 0 to cycles - 1 do
          if !failed = None then begin
            Unix.sleepf seg;
            let t0 = Unix.gettimeofday () in
            log "cycle %d/%d: SIGKILL" (i + 1) cycles;
            Unix.kill !pid Sys.sigkill;
            ignore (Unix.waitpid [] !pid);
            scan_segment (Printf.sprintf "cycle %d" (i + 1));
            pid := spawn_daemon ();
            match
              wait_accepting ~pid:!pid
                ~deadline:(Unix.gettimeofday () +. 10.)
            with
            | Ok () ->
              recov.(i) <- (Unix.gettimeofday () -. t0) *. 1000.;
              log "cycle %d/%d: recovered in %.0f ms" (i + 1) cycles recov.(i)
            | Error e -> failed := Some e
          end
        done;
        Domain.join load_dom;
        (* Every name abandoned to a killed connection is protected only
           by its lease: one TTL (plus sweep slack) later the server
           must be empty. *)
        let leaked =
          match !failed with
          | Some _ -> -1
          | None -> (
            Unix.sleepf (lease_ttl +. Float.max 0.5 (lease_ttl /. 5.));
            match Service.Client.connect ~path:real_sock () with
            | Error _ -> -1
            | Ok c ->
              let v =
                match Service.Client.stats c with
                | Ok j -> (
                  try Jsonu.int_ (Jsonu.obj j) "taken"
                  with Jsonu.Malformed -> -1)
                | Error _ -> -1
              in
              Service.Client.close c;
              v)
        in
        let daemon_exit =
          match !failed with
          | Some _ ->
            (try Unix.kill !pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] !pid) with Unix.Unix_error _ -> ());
            125
          | None -> (
            Unix.kill !pid Sys.sigterm;
            match Unix.waitpid [] !pid with
            | _, Unix.WEXITED c -> c
            | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 125)
        in
        scan_segment "final";
        Option.iter Chaos.Wire_fault.stop proxy;
        Option.iter
          (fun p ->
            let c = Chaos.Wire_fault.counters p in
            log
              "proxy: %d conn(s), %d refused, %d chop(s), %d stall(s), \
               %d reset(s)"
              c.Chaos.Wire_fault.conns c.Chaos.Wire_fault.refused
              c.Chaos.Wire_fault.chops c.Chaos.Wire_fault.stalls
              c.Chaos.Wire_fault.resets)
          proxy;
        cleanup ();
        match (!failed, !load_res) with
        | Some e, _ ->
          log "soak failed: %s" e;
          2
        | None, Error e ->
          log "load failed: %s" e;
          2
        | None, Ok r ->
          let sorted = Array.sub recov 0 cycles in
          Array.sort Float.compare sorted;
          let art =
            {
              Service.Recovery_bench.cycles;
              rate;
              duration_s = duration;
              seed;
              shards;
              capacity;
              lease_ttl_s = lease_ttl;
              wire_faults;
              wall_s = r.Service.Load_gen.wall_s;
              offered = r.Service.Load_gen.offered;
              acquired = r.Service.Load_gen.acquired;
              acquire_failures = r.Service.Load_gen.acquire_failures;
              released = r.Service.Load_gen.released;
              errors = r.Service.Load_gen.errors;
              timeouts = r.Service.Load_gen.timeouts;
              violations = r.Service.Load_gen.violations;
              reconnects = r.Service.Load_gen.reconnects;
              dropped = r.Service.Load_gen.dropped;
              abandoned = r.Service.Load_gen.abandoned;
              throughput = r.Service.Load_gen.throughput;
              duplicate_grants = !dups;
              leaked_after_expiry = leaked;
              recovery_p50_ms = percentile sorted 50.;
              recovery_p99_ms = percentile sorted 99.;
              recovery_max_ms = percentile sorted 100.;
              journal_records = !jrecords;
              journal_torn_tails = !jtorn;
              journal_damaged = !jdamaged;
              daemon_exit;
            }
          in
          if json then
            print_endline
              (Jsonu.to_string (Service.Recovery_bench.to_json art))
          else print_endline (Service.Recovery_bench.render art);
          let path = Service.Recovery_bench.save ~dir:out art in
          log "wrote %s" path;
          let audit_exit =
            if
              art.Service.Recovery_bench.duplicate_grants = 0
              && art.Service.Recovery_bench.leaked_after_expiry = 0
              && art.Service.Recovery_bench.violations = 0
              && art.Service.Recovery_bench.errors = 0
              && art.Service.Recovery_bench.timeouts = 0
              && art.Service.Recovery_bench.journal_damaged = 0
              && art.Service.Recovery_bench.daemon_exit = 0
              && art.Service.Recovery_bench.acquired > 0
            then 0
            else 1
          in
          (match check with
          | None -> audit_exit
          | Some file -> (
            match Service.Recovery_bench.load file with
            | exception Sys_error msg ->
              log "cannot read baseline: %s" msg;
              2
            | exception Jsonu.Malformed ->
              log "baseline %s is not a bench-service-recovery document" file;
              2
            | baseline -> (
              match
                Service.Recovery_bench.check ~threshold ~baseline
                  ~current:art
              with
              | [] ->
                log "regression check passed against %s (threshold %g)" file
                  threshold;
                audit_exit
              | findings ->
                List.iter (fun f -> log "FAIL: %s" f) findings;
                1))))
  end

(* chaos overload: drive the daemon far past capacity and check that it
   degrades instead of collapsing *)

let chaos_overload json overdrive calibrate_rate calibrate_duration duration
    conns clients shards capacity max_queue deadline_ms drain_timeout seed
    daemon keep out check threshold =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let log fmt =
    Printf.ksprintf (fun s -> Printf.eprintf "[overload] %s\n%!" s) fmt
  in
  let daemon_path =
    match daemon with
    | Some p -> p
    | None ->
      Filename.concat (Filename.dirname Sys.executable_name) "renamed.exe"
  in
  if not (Sys.file_exists daemon_path) then begin
    log "no renamed binary at %s (build bin/ or pass --daemon)" daemon_path;
    2
  end
  else if overdrive < 1. then begin
    log "--overdrive must be >= 1";
    2
  end
  else begin
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "renamed_overload_%d" (Unix.getpid ()))
    in
    Service.Service_bench.mkdir_p dir;
    let sock = Filename.concat dir "renamed.sock" in
    let cleanup () =
      if keep then log "keeping %s" dir
      else begin
        (try Sys.remove sock with Sys_error _ -> ());
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end
    in
    (* The generator and daemon timeshare this machine, so at heavy
       overdrive the generator itself read-starves into looking like a
       slow client; the default 5 s stall deadline would then sever the
       measurement connections mid-soak (the disconnect path has its
       own e2e test).  A long stall timeout keeps the daemon's
       read-pausing backpressure — the behavior under test — while the
       harness stays connected. *)
    let pid =
      Unix.create_process daemon_path
        [|
          daemon_path; "--socket"; sock;
          "--shards"; string_of_int shards;
          "--capacity"; string_of_int capacity;
          "--max-queue"; string_of_int max_queue;
          "--stall-timeout"; "60";
          "--quiet";
        |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    let kill_daemon () =
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
    in
    let run_load ~tag ~rate ~duration_s =
      Service.Load_gen.run
        {
          (Service.Load_gen.default_config ~path:sock) with
          conns;
          clients;
          rate;
          duration_s;
          seed;
          deadline_ms;
          drain_timeout_s = drain_timeout;
          log = (fun s -> Printf.eprintf "[%s] %s\n%!" tag s);
        }
    in
    (* The daemon's cumulative served-acquire counter, from a stats
       round-trip on a throwaway connection; -1 when unreadable. *)
    let sample_acquires () =
      match Service.Client.connect ~path:sock () with
      | Error _ -> -1
      | Ok c ->
        let v =
          match Service.Client.stats c with
          | Error _ -> -1
          | Ok j -> (
            match Jsonu.int_ (Jsonu.obj j) "acquires" with
            | v -> v
            | exception Jsonu.Malformed -> -1)
        in
        Service.Client.close c;
        v
    in
    (* Goodput measured where it is not distorted: the generator and
       daemon timeshare the machine, so under heavy overdrive the
       generator read-starves and grants land after the arrival window
       — the client-side count then reports the generator's collapse,
       not the daemon's.  Sample the daemon's own served counter at
       both edges of the window instead; the client-side number rides
       along in the artifact for comparison. *)
    let timed_load ~tag ~rate ~duration_s =
      let a0 = sample_acquires () in
      let sampler =
        (* repro-lint: allow domain-spawn — end-of-window stats sampler *)
        Domain.spawn (fun () ->
            Unix.sleepf duration_s;
            sample_acquires ())
      in
      let r = run_load ~tag ~rate ~duration_s in
      let a1 = Domain.join sampler in
      match r with
      | Error _ as e -> e
      | Ok r ->
        let daemon_goodput =
          if a0 >= 0 && a1 >= a0 then
            float_of_int (a1 - a0) /. Float.max 1e-9 duration_s
          else r.Service.Load_gen.goodput
        in
        Ok (r, daemon_goodput)
    in
    match wait_accepting ~sock ~pid ~deadline:(Unix.gettimeofday () +. 10.) with
    | Error e ->
      log "boot: %s" e;
      kill_daemon ();
      cleanup ();
      2
    | Ok () -> (
      (* Capacity is whatever the daemon actually serves when offered
         more than it can take: calibration keeps doubling the offered
         rate until goodput falls measurably short of it, and that
         saturated goodput — generator and daemon bottlenecks included
         — is the service rate the soak then overdrives.  Stopping at
         the first unsaturated rate would report the offered rate, not
         a capacity. *)
      (* The generator and daemon share this machine, so the daemon's
         service rate depends on how hard the generator is pushing:
         capacity measured under a lazy generator would be a bar the
         soak — whose generator runs flat out — could never meet.  The
         saturated run is the one whose CPU split matches the soak's,
         so {e its} daemon-side goodput is the capacity the plateau is
         judged against. *)
      let rec calibrate rate tries =
        log "calibrating at %.0f/s for %.1fs" rate calibrate_duration;
        match
          timed_load ~tag:"calibrate" ~rate ~duration_s:calibrate_duration
        with
        | Error _ as e -> e
        | Ok (_, g) ->
          if g <= 0. then Error "calibration served nothing (goodput 0)"
          else if g >= 0.9 *. rate && tries > 0 then begin
            log "kept up at %.0f/s (goodput %.0f/s): not saturated, doubling"
              rate g;
            calibrate (2. *. rate) (tries - 1)
          end
          else Ok (rate, g)
      in
      match calibrate calibrate_rate 6 with
      | Error e ->
        log "calibration failed: %s" e;
        kill_daemon ();
        cleanup ();
        2
      | Ok (calibrated_rate, capacity_ops) -> (
        let rate = overdrive *. capacity_ops in
        let rss_start = proc_rss_kb pid in
        log "capacity %.0f/s; soaking at %.1fx = %.0f/s for %.1fs"
          capacity_ops overdrive rate duration;
        match timed_load ~tag:"soak" ~rate ~duration_s:duration with
        | Error e ->
          log "soak failed: %s" e;
          kill_daemon ();
          cleanup ();
          2
        | Ok (r, goodput_daemon) ->
          let rss_end = proc_rss_kb pid in
          (* Final daemon-side snapshot: deepest queue seen and the
             overload level the state machine ended at. *)
          let queue_peak, level =
            match Service.Client.connect ~path:sock () with
            | Error _ -> (-1, "unreachable")
            | Ok c ->
              let snap =
                match Service.Client.stats c with
                | Error _ -> (-1, "unreachable")
                | Ok j -> (
                  let f = Jsonu.obj j in
                  let peak =
                    match Jsonu.int_ f "queue_peak" with
                    | v -> v
                    | exception Jsonu.Malformed -> -1
                  in
                  let level =
                    match List.assoc_opt "overload" f with
                    | Some o -> (
                      match Jsonu.str (Jsonu.obj o) "level" with
                      | s -> s
                      | exception Jsonu.Malformed -> "unknown")
                    | None -> "unknown"
                  in
                  (peak, level))
              in
              Service.Client.close c;
              snap
          in
          let daemon_exit =
            Unix.kill pid Sys.sigterm;
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED c -> c
            | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 125
          in
          cleanup ();
          if daemon_exit <> 0 then
            log "daemon exited %d (leak audit at shutdown)" daemon_exit;
          let q = Stats.Hdr.quantile r.Service.Load_gen.latency in
          let art =
            {
              Service.Overload_bench.shards;
              capacity;
              conns;
              clients;
              calibrate_rate = calibrated_rate;
              capacity_ops;
              overdrive;
              rate;
              duration_s = duration;
              seed;
              max_queue;
              deadline_ms;
              wall_s = r.Service.Load_gen.wall_s;
              offered = r.Service.Load_gen.offered;
              acquired = r.Service.Load_gen.acquired;
              shed = r.Service.Load_gen.shed;
              expired = r.Service.Load_gen.expired;
              acquire_failures = r.Service.Load_gen.acquire_failures;
              released = r.Service.Load_gen.released;
              errors = r.Service.Load_gen.errors;
              timeouts = r.Service.Load_gen.timeouts;
              violations = r.Service.Load_gen.violations;
              leaked = r.Service.Load_gen.leaked;
              goodput = r.Service.Load_gen.goodput;
              goodput_daemon;
              lat_p50 = q 0.5;
              lat_p99 = q 0.99;
              lat_max = Stats.Hdr.max_value r.Service.Load_gen.latency;
              rss_start_kb = rss_start;
              rss_end_kb = rss_end;
              queue_peak;
              queue_bound = max_queue;
              level;
              drain_complete = r.Service.Load_gen.drain_complete;
            }
          in
          if json then
            print_endline (Jsonu.to_string (Service.Overload_bench.to_json art))
          else print_endline (Service.Overload_bench.render art);
          let path = Service.Overload_bench.save ~dir:out art in
          log "wrote %s" path;
          let audit_exit =
            if
              art.Service.Overload_bench.violations = 0
              && art.Service.Overload_bench.leaked = 0
              && art.Service.Overload_bench.errors = 0
              && art.Service.Overload_bench.timeouts = 0
              && art.Service.Overload_bench.acquired > 0
              && art.Service.Overload_bench.shed
                 + art.Service.Overload_bench.expired
                 > 0
              && art.Service.Overload_bench.queue_peak
                 <= art.Service.Overload_bench.queue_bound
              && art.Service.Overload_bench.goodput_daemon
                 >= 0.8 *. capacity_ops
              && art.Service.Overload_bench.drain_complete
              && daemon_exit = 0
            then 0
            else 1
          in
          (match check with
          | None -> audit_exit
          | Some file -> (
            match Service.Overload_bench.load file with
            | exception Sys_error msg ->
              log "cannot read baseline: %s" msg;
              2
            | exception Jsonu.Malformed ->
              log "baseline %s is not a bench-service-overload document" file;
              2
            | baseline -> (
              match
                Service.Overload_bench.check ~threshold ~baseline ~current:art
              with
              | [] ->
                log "regression check passed against %s (threshold %g)" file
                  threshold;
                audit_exit
              | findings ->
                List.iter (fun f -> log "FAIL: %s" f) findings;
                1)))))
  end

(* ------------------------------------------------------------------ *)
(* modelcheck: exhaustive DPOR exploration of small configurations *)

module Explore = Analysis.Explore

type mc_run = {
  mc_label : string;
  mc_stats : Explore.stats;
  mc_violation : Explore.violation option;
  mc_fixture : Explore.fixture option;
  mc_wall_s : float;
}

(* Explore one world; on a violation, shrink it and build its fixture. *)
let mc_run ~label ~sleep ~max_transitions world fixture_of =
  let t0 = Unix.gettimeofday () in
  let outcome = Explore.explore ~sleep_sets:sleep ~max_transitions world in
  let wall = Unix.gettimeofday () -. t0 in
  let violation, fixture =
    match outcome.Explore.violation with
    | None -> (None, None)
    | Some v ->
      let mv = Explore.minimize world v in
      (Some mv, Some (fixture_of mv))
  in
  {
    mc_label = label;
    mc_stats = outcome.Explore.stats;
    mc_violation = violation;
    mc_fixture = fixture;
    mc_wall_s = wall;
  }

let mc_print_run r =
  Printf.printf "%s: %d schedule(s), %d transition(s), depth %d, %d pruned%s, %.2fs\n"
    r.mc_label r.mc_stats.Explore.schedules r.mc_stats.Explore.transitions
    r.mc_stats.Explore.max_depth r.mc_stats.Explore.sleep_pruned
    (if r.mc_stats.Explore.complete then "" else " [INCOMPLETE: budget hit]")
    r.mc_wall_s;
  match r.mc_violation with
  | None -> ()
  | Some v ->
    Printf.printf "VIOLATION  %s\n" v.Explore.message;
    Printf.printf "  minimized schedule (%d step(s)):\n" (List.length v.Explore.schedule);
    List.iter
      (fun (a : Explore.action) -> Printf.printf "    p%d %s\n" a.Explore.pid a.Explore.label)
      v.Explore.schedule

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

let mc_fixture_file (fx : Explore.fixture) =
  let sane s = String.map (fun c -> if c = '-' then '_' else c) s in
  match fx.Explore.fx_mutation with
  | Some m -> Printf.sprintf "modelcheck_%s_%s.cex.json" (sane fx.Explore.fx_model) (sane m)
  | None -> Printf.sprintf "modelcheck_%s.cex.json" (sane fx.Explore.fx_model)

(* Replay a committed counterexample fixture: exit 1 when the recorded
   violation reproduces (the fixture still convicts), 0 when the
   schedule now runs clean (the bug is gone — delete the fixture), 2
   when the fixture is unreadable or no longer replayable. *)
let mc_replay file =
  match read_text file with
  | exception Sys_error e ->
    Printf.eprintf "modelcheck: %s\n" e;
    2
  | source -> (
    match Explore.audit_fixture source with
    | Error e ->
      Printf.eprintf "modelcheck: %s: %s\n" file e;
      2
    | Ok fx -> (
      match Mcheck.Worlds.world_of_fixture fx with
      | Error e ->
        Printf.eprintf "modelcheck: %s: orphaned fixture: %s\n" file e;
        2
      | Ok w -> (
        let keys = List.map (fun (pid, tag, _) -> (pid, tag)) fx.Explore.fx_schedule in
        match Explore.replay w keys with
        | Error e ->
          Printf.eprintf "modelcheck: %s: %s\n" file e;
          2
        | Ok None ->
          Printf.printf
            "%s: schedule replays clean — the recorded violation is gone\n"
            file;
          0
        | Ok (Some v) ->
          Printf.printf "%s: violation reproduced in %d step(s): %s\n" file
            (List.length v.Explore.schedule) v.Explore.message;
          1)))

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
    let violations =
      List.filter (fun r -> r.mc_violation <> None) runs |> List.length
    in
    let incomplete =
      List.exists (fun r -> not r.mc_stats.Explore.complete) runs
    in
    let total_schedules =
      List.fold_left (fun acc r -> acc + r.mc_stats.Explore.schedules) 0 runs
    in
    (match out with
    | None -> ()
    | Some dir ->
      List.iter
        (fun r ->
          match r.mc_fixture with
          | None -> ()
          | Some fx ->
            let file = Filename.concat dir (mc_fixture_file fx) in
            save_text ~file (Explore.fixture_to_string fx);
            Printf.printf "counterexample written to %s\n" file)
        runs);
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

let substrate_conv =
  let parse s =
    match Harness.Substrate.of_string s with
    | Some sub -> Ok sub
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown substrate %S; one of: %s" s
             (String.concat ", "
                (List.map Harness.Substrate.to_string Harness.Substrate.all))))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Harness.Substrate.to_string s))

let substrate_t ~default =
  Arg.(
    value
    & opt substrate_conv default
    & info [ "substrate" ] ~docv:"SUB"
        ~doc:
          "Execution substrate: $(b,fast) (zero-allocation state-machine \
           core), $(b,effects) (reference effect scheduler) or $(b,atomic) \
           (real atomics, sequential).  Substrates are result-equivalent \
           on the schedules they share, so this only changes speed; \
           adversarial/crash/event experiments always use the effects \
           path regardless.")

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
           error.  Quarantined jobs re-schedule with whatever retry \
           budget they have left.")

let retries_t =
  Arg.(
    value & opt int 1
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Re-attempts after a job's first failure (requires $(b,--out)).  \
           Each failed attempt is quarantined in \
           $(b,<out>/<id>.failures.jsonl); a job failing $(docv)+1 times \
           is given up on without aborting the run.  Retry seeds fold the \
           attempt index into the seed tree, so retries are reproducible \
           at any $(b,--jobs) value.")

let job_timeout_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "job-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Fail any job attempt that runs longer than $(docv) seconds \
           (requires $(b,--out)).  A stuck attempt is abandoned by the \
           watchdog shortly after the deadline and quarantined; the rest \
           of the run continues.")

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
  let doc = "Run selected experiments by id (t1..t10, f1, f2)." in
  let ids_t =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids.")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_experiments $ ids_t $ seed_t $ trials_t $ scale_t
      $ substrate_t ~default:Harness.Substrate.Fast
      $ csv_t $ jobs_t $ out_t $ resume_t $ retries_t $ job_timeout_t)

let all_cmd =
  let doc = "Run every experiment in order." in
  let run seed trials scale substrate csv jobs out resume retries job_timeout =
    run_experiments (Harness.Registry.ids ()) seed trials scale substrate csv
      jobs out resume retries job_timeout
  in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const run $ seed_t $ trials_t $ scale_t
      $ substrate_t ~default:Harness.Substrate.Fast
      $ csv_t $ jobs_t $ out_t $ resume_t $ retries_t $ job_timeout_t)

let doctor_cmd =
  let doc =
    "Audit a result store: truncated tails, malformed lines, duplicate \
     keys, seed-tree mismatches, and quarantine contents."
  in
  let dir_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"The $(b,--out) directory to audit.")
  in
  Cmd.v (Cmd.info "doctor" ~doc ~exits:finding_exits) Term.(const doctor $ dir_t)

let lint_cmd =
  let doc =
    "Lint the source tree for determinism hazards (AST-level, \
     compiler-libs parser)."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses every .ml file with the compiler's own parser and flags \
         identifier uses that break reproducibility: Stdlib.Random outside \
         lib/prng, wall-clock reads outside the timing layers, raw \
         Domain.spawn outside the runner/pool, Hashtbl iteration in \
         result-producing code, polymorphic compare in lib/stats, and \
         stray stdout prints.  One structural rule, atomic-get-set, flags \
         an Atomic.get followed by Atomic.set of the same atomic inside \
         one function in the concurrent layers (lib/service, lib/shm) — \
         a lost-update window.  Silence a justified use with a \
         `repro-lint: allow <rule-id>' comment on the flagged line or the \
         line above.";
    ]
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit a versioned JSON report: {\"schema\":\"repro-lint/1\", \
             \"findings\":[...]}.")
  in
  let root_t =
    Arg.(
      value & opt string "."
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Repository root; stripped from paths so rule scopes (lib/prng, \
             bin, ...) match.")
  in
  let paths_t =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "Files or directories to lint (default: bin lib examples bench \
             test under $(b,--root)).")
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~man ~exits:finding_exits)
    Term.(const lint $ json_t $ root_t $ paths_t)

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
        "Drives the Fast_algo state machines step-granularly through \
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
         regression fixture); 0 means the schedule now replays clean.";
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
             runs clean, 2 if the fixture is malformed or orphaned.")
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
           the committed baseline CI gates against with $(b,--check).";
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
    let conns_t =
      Arg.(
        value & opt int 4
        & info [ "conns" ] ~docv:"N" ~doc:"Load-generator connections.")
    in
    let clients_t =
      Arg.(
        value & opt int 64
        & info [ "clients" ] ~docv:"N" ~doc:"Client-id space.")
    in
    let shards_t =
      Arg.(
        value & opt int 2
        & info [ "shards" ] ~docv:"N" ~doc:"Daemon allocator shards.")
    in
    let capacity_t =
      Arg.(
        value & opt int 1024
        & info [ "capacity" ] ~docv:"N" ~doc:"Daemon per-shard capacity.")
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
    let daemon_t =
      Arg.(
        value
        & opt (some string) None
        & info [ "daemon" ] ~docv:"PATH"
            ~doc:
              "renamed binary to soak (default: renamed.exe next to this \
               executable).")
    in
    let keep_t =
      Arg.(
        value & flag
        & info [ "keep" ]
            ~doc:"Keep the scratch directory (sockets, journal) for autopsy.")
    in
    let sout_t =
      Arg.(
        value & opt string "bench"
        & info [ "out" ] ~docv:"DIR"
            ~doc:"Directory for BENCH_SERVICE_<k>.json files.")
    in
    let check_t =
      Arg.(
        value
        & opt (some string) None
        & info [ "check" ] ~docv:"FILE"
            ~doc:
              "Baseline bench-service-recovery JSON to gate against; \
               regressions exit 1.")
    in
    let threshold_t =
      Arg.(
        value & opt float 0.5
        & info [ "threshold" ] ~docv:"T"
            ~doc:
              "Relative tolerance for the throughput and recovery-p99 \
               gates of $(b,--check).")
    in
    Cmd.v (Cmd.info "service" ~doc ~man ~exits:finding_exits)
      Term.(
        const chaos_service $ json_t $ cycles_t $ rate_t $ duration_t
        $ conns_t $ clients_t $ shards_t $ capacity_t $ lease_ttl_t $ seed_t
        $ wire_faults_t $ daemon_t $ keep_t $ sout_t $ check_t $ threshold_t)
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
           the committed baseline CI gates against with $(b,--check).";
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
    let conns_t =
      Arg.(
        value & opt int 4
        & info [ "conns" ] ~docv:"N" ~doc:"Load-generator connections.")
    in
    let clients_t =
      Arg.(
        value & opt int 64
        & info [ "clients" ] ~docv:"N" ~doc:"Client-id space.")
    in
    let shards_t =
      Arg.(
        value & opt int 2
        & info [ "shards" ] ~docv:"N" ~doc:"Daemon allocator shards.")
    in
    let capacity_t =
      Arg.(
        value & opt int 4096
        & info [ "capacity" ] ~docv:"N" ~doc:"Daemon per-shard capacity.")
    in
    let max_queue_t =
      Arg.(
        value & opt int 512
        & info [ "max-queue" ] ~docv:"N"
            ~doc:"Daemon per-shard admission bound.")
    in
    let deadline_t =
      Arg.(
        value & opt int 250
        & info [ "deadline" ] ~docv:"MS"
            ~doc:
              "Per-request budget stamped by the generator (0 = none); \
               the daemon sheds work whose budget is spent.")
    in
    let drain_timeout_t =
      Arg.(
        value & opt float 10.
        & info [ "drain-timeout" ] ~docv:"SECONDS"
            ~doc:"How long the final drain may run before being cut short.")
    in
    let daemon_t =
      Arg.(
        value
        & opt (some string) None
        & info [ "daemon" ] ~docv:"PATH"
            ~doc:
              "renamed binary to soak (default: renamed.exe next to this \
               executable).")
    in
    let keep_t =
      Arg.(
        value & flag
        & info [ "keep" ] ~doc:"Keep the scratch directory for autopsy.")
    in
    let sout_t =
      Arg.(
        value & opt string "bench"
        & info [ "out" ] ~docv:"DIR"
            ~doc:"Directory for BENCH_SERVICE_<k>.json files.")
    in
    let check_t =
      Arg.(
        value
        & opt (some string) None
        & info [ "check" ] ~docv:"FILE"
            ~doc:
              "Baseline bench-service-overload JSON to gate against; \
               regressions exit 1.")
    in
    let threshold_t =
      Arg.(
        value & opt float 0.5
        & info [ "threshold" ] ~docv:"T"
            ~doc:
              "Relative tolerance for the goodput and p99 gates of \
               $(b,--check).")
    in
    Cmd.v (Cmd.info "overload" ~doc ~man ~exits:finding_exits)
      Term.(
        const chaos_overload $ json_t $ overdrive_t $ calibrate_rate_t
        $ calibrate_duration_t $ duration_t $ conns_t $ clients_t $ shards_t
        $ capacity_t $ max_queue_t $ deadline_t $ drain_timeout_t $ seed_t
        $ daemon_t $ keep_t $ sout_t $ check_t $ threshold_t)
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
      $ substrate_t ~default:Harness.Substrate.Effects
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

(* Informational chatter goes to stderr so `--json` leaves stdout a
   single parseable document. *)
let bench_kernel_suite json seed scale out check threshold =
  let suite = Bench_kernels.run_suite ~seed ~scale in
  if json then
    print_endline (Jsonu.to_string (Bench_kernels.to_json suite))
  else print_endline (Bench_kernels.render suite);
  let path = Bench_kernels.save ~dir:out suite in
  Printf.eprintf "[bench] wrote %s\n%!" path;
  match check with
  | None -> 0
  | Some file ->
    (match Bench_kernels.load file with
    | exception Sys_error msg ->
      Printf.eprintf "[bench] cannot read baseline: %s\n%!" msg;
      2
    | exception Jsonu.Malformed ->
      Printf.eprintf "[bench] baseline %s is not a bench JSON document%s\n%!"
        file
        (if Engine.Sweep.load file <> None then
           " (it is a bench-large sweep; use --large)"
         else "");
      2
    | baseline -> (
      match Bench_kernels.check ~threshold ~baseline ~current:suite with
      | [] ->
        Printf.eprintf
          "[bench] regression check passed against %s (threshold %g)\n%!" file
          threshold;
        0
      | findings ->
        List.iter (Printf.eprintf "[bench] FAIL: %s\n%!") findings;
        1))

(* The large-n decade sweep: t1/t5 shapes on the streaming fast core, fanned
   across domains by Engine.Sweep with checkpoint/resume, aggregated into a
   kind="bench-large" BENCH_<k>.json. *)
let bench_large json seed trials out check threshold jobs store resume max_n
    max_k =
  if max_n < Harness.Exp_large.grid_lo || max_k < Harness.Exp_large.grid_lo
  then begin
    Printf.eprintf "[bench] --max-n and --max-k must be at least %d\n%!"
      Harness.Exp_large.grid_lo;
    2
  end
  else begin
    let ctx scale =
      Harness.Experiment.default_ctx ~seed ~trials ~scale
        ~substrate:Harness.Substrate.Fast ()
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
    let run =
      try
        Engine.Sweep.execute ?workers:jobs ~resume ~should_stop
          ~store_dir:store ~plans ()
      with Failure msg ->
        Printf.eprintf "[bench] %s\n%!" msg;
        exit 2
    in
    if run.Engine.Sweep.interrupted then begin
      Printf.eprintf
        "[bench] interrupted; store finalized, resume with:\n\
        \  repro_cli bench --large --seed %d --trials %d --max-n %d --max-k \
         %d --store %s --resume\n\
         %!"
        seed trials max_n max_k store;
      130
    end
    else if run.Engine.Sweep.quarantined > 0 then begin
      Printf.eprintf
        "[bench] %d job(s) quarantined; audit with `repro_cli doctor %s'\n%!"
        run.Engine.Sweep.quarantined store;
      1
    end
    else begin
      let art = Engine.Sweep.aggregate ~store_dir:store ~plans in
      if json then print_string (Engine.Sweep.to_json art)
      else print_endline (Engine.Sweep.render art);
      let path = Engine.Sweep.save ~dir:out art in
      Printf.eprintf "[bench] wrote %s\n%!" path;
      match check with
      | None -> 0
      | Some file -> (
        match Engine.Sweep.load file with
        | None ->
          Printf.eprintf
            "[bench] baseline %s is not a bench-large JSON document%s\n%!"
            file
            (match Bench_kernels.load file with
            | _ -> " (it is a kernel bench; drop --large)"
            | exception _ -> "");
          2
        | Some baseline -> (
          match Engine.Sweep.check ~threshold ~baseline ~current:art with
          | [] ->
            Printf.eprintf
              "[bench] regression check passed against %s (threshold %g)\n%!"
              file threshold;
            0
          | findings ->
            List.iter (Printf.eprintf "[bench] FAIL: %s\n%!") findings;
            1))
    end
  end

let bench json seed scale out check threshold large trials jobs store resume
    max_n max_k =
  if large then
    bench_large json seed trials out check threshold jobs store resume max_n
      max_k
  else bench_kernel_suite json seed scale out check threshold

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
         since it only measures the host machine.";
      `P
        "$(b,--large) instead runs the t1l/t5l decade sweeps (step \
         complexity up to n = 10^8 and adaptive contention up to k = \
         10^7) on the streaming fast core: trial jobs fan out across \
         $(b,--jobs) worker domains into a crash-safe $(b,--store) \
         (resume with $(b,--resume)), and the aggregate becomes a \
         kind=bench-large BENCH_<k>.json — the committed BENCH_1.json \
         baseline.  $(b,--max-n)/$(b,--max-k) shrink the grids to a \
         decade subset of the full baseline, so a CI smoke run checks \
         against the same committed file.  The words/op gate is \
         absolute; steps and space check against the baseline; timing \
         is informational.";
    ]
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the suite as JSON instead of tables.")
  in
  let out_t =
    Arg.(
      value & opt string "bench"
      & info [ "out" ] ~docv:"DIR" ~doc:"Directory for BENCH_<k>.json files.")
  in
  let check_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:"Baseline BENCH_<k>.json to diff against; regressions exit 1.")
  in
  let threshold_t =
    Arg.(
      value & opt float 0.25
      & info [ "threshold" ] ~docv:"T"
          ~doc:"Relative regression tolerance for $(b,--check).")
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
      const bench $ json_t $ seed_t $ scale_t $ out_t $ check_t $ threshold_t
      $ large_t $ bench_trials_t $ jobs_t $ store_t $ resume_t $ max_n_t
      $ max_k_t)

(* ------------------------------------------------------------------ *)
(* load: open-loop Poisson load against a running renamed daemon *)

let load_daemon json socket mode conns clients rate duration hold_const
    hold_mean deadline drain_timeout seed out check threshold =
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
    match Service.Client.connect ~path:socket () with
    | Error e -> Error e
    | Ok c ->
      let g =
        match Service.Client.stats c with
        | Error e -> Error (Service.Client.failure_message e)
        | Ok j -> (
          match
            (Jsonu.int_ (Jsonu.obj j) "shards", Jsonu.int_ (Jsonu.obj j) "capacity")
          with
          | g -> Ok g
          | exception Jsonu.Malformed -> Error "stats reply missing geometry")
      in
      Service.Client.close c;
      g
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
      let art = Service.Service_bench.of_run ~shards ~capacity ~cfg r in
      if json then
        print_endline (Jsonu.to_string (Service.Service_bench.to_json art))
      else print_endline (Service.Service_bench.render art);
      let path = Service.Service_bench.save ~dir:out art in
      Printf.eprintf "[load] wrote %s\n%!" path;
      let audit_exit = if Service.Load_gen.ok r then 0 else 1 in
      (match check with
      | None -> audit_exit
      | Some file -> (
        match Service.Service_bench.load file with
        | exception Sys_error msg ->
          Printf.eprintf "[load] cannot read baseline: %s\n%!" msg;
          2
        | exception Jsonu.Malformed ->
          Printf.eprintf
            "[load] baseline %s is not a bench-service JSON document\n%!" file;
          2
        | baseline -> (
          match
            Service.Service_bench.check ~threshold ~baseline ~current:art
          with
          | [] ->
            Printf.eprintf
              "[load] regression check passed against %s (threshold %g)\n%!"
              file threshold;
            audit_exit
          | findings ->
            List.iter (Printf.eprintf "[load] FAIL: %s\n%!") findings;
            1))))

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
         is zero after the final drain); audit failures exit 1.";
      `P
        "Every invocation writes the next free BENCH_SERVICE_<k>.json \
         under $(b,--out); BENCH_SERVICE_0.json is the committed \
         baseline CI diffs against with $(b,--check), which gates on \
         the audit invariants and on throughput relative to the \
         baseline — absolute latency is recorded but never gated.";
    ]
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the artifact as JSON instead of a summary.")
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
  let conns_t =
    Arg.(
      value & opt int 4
      & info [ "conns" ] ~docv:"N" ~doc:"Connections to spread load over.")
  in
  let clients_t =
    Arg.(
      value & opt int 64
      & info [ "clients" ] ~docv:"N"
          ~doc:"Client-id space (the daemon's shard-routing keys).")
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
  let deadline_t =
    Arg.(
      value & opt int 0
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "Per-request budget stamped on each acquire (0 = none); the \
             daemon sheds rather than serves work whose budget is spent.")
  in
  let drain_timeout_t =
    Arg.(
      value & opt float 10.
      & info [ "drain-timeout" ] ~docv:"SECONDS"
          ~doc:
            "How long past the load window the final drain may run before \
             being cut short (reported in the artifact).")
  in
  let out_t =
    Arg.(
      value & opt string "bench"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for BENCH_SERVICE_<k>.json files.")
  in
  let check_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:
            "Baseline BENCH_SERVICE_<k>.json to diff against; regressions \
             exit 1.")
  in
  let threshold_t =
    Arg.(
      value & opt float 0.5
      & info [ "threshold" ] ~docv:"T"
          ~doc:"Relative throughput tolerance for $(b,--check).")
  in
  Cmd.v (Cmd.info "load" ~doc ~man ~exits:finding_exits)
    Term.(
      const load_daemon $ json_t $ socket_t $ mode_t $ conns_t $ clients_t
      $ rate_t $ duration_t $ hold_const_t $ hold_mean_t $ deadline_t
      $ drain_timeout_t $ seed_t $ out_t $ check_t $ threshold_t)

let report_cmd =
  let doc = "Run every experiment and write a self-contained markdown report." in
  let out_t =
    Arg.(
      value & opt string "report.md"
      & info [ "out" ] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const report $ out_t $ seed_t $ trials_t $ scale_t
      $ substrate_t ~default:Harness.Substrate.Fast)

let main_cmd =
  let doc =
    "Reproduction harness for `Randomized loose renaming in O(log log n) \
     time' (PODC 2013)."
  in
  Cmd.group
    (Cmd.info "repro_cli" ~version:"1.0.0" ~doc)
    [ list_cmd; run_cmd; all_cmd; simulate_cmd; verify_cmd; bench_cmd;
      load_cmd; report_cmd; doctor_cmd; lint_cmd; racecheck_cmd;
      modelcheck_cmd; chaos_cmd ]

let () = exit (Cmd.eval' main_cmd)
