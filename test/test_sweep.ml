(* Engine.Sweep: the large-n artifact behind `repro_cli bench --large`,
   run through the engine's batch driver (Engine.Plan.run_batch) as the
   CLI runs it.  Pins the properties the committed BENCH_1.json stands
   on: domain-count independence (1 worker and 4 produce the same rows),
   crash-safe resume (a truncated store reruns only the lost tail and
   aggregates identically; a store first written over a wider grid
   aggregates to the narrow run's rows), and the bench-large artifact
   round-trip through save/load, audit and the regression check. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let temp_dir () = Filename.temp_dir "sweep_test" ""

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* A ctx whose tables/log go nowhere: the jobs view never prints, but a
   quiet ctx keeps that invariant visible. *)
let quiet_ctx ~trials ~scale =
  {
    (Harness.Experiment.default_ctx ~seed:5 ~trials ~scale ())
    with
    Harness.Experiment.emit_table = (fun ~title:_ _ -> ());
    log = (fun _ -> ());
  }

(* Tiny grids: t1l scaled to decades 10^3..10^4 (8 series-points), t5l
   to 10^3 only.  Cheap enough for the suite, wide enough to exercise
   grouping, series parsing and the decade-monotonicity audit. *)
let plans ?(t1l_scale = 1e-4) ?(t5l_scale = 1e-4) ~trials () =
  [
    (Harness.Exp_large.t1l, quiet_ctx ~trials ~scale:t1l_scale);
    (Harness.Exp_large.t5l, quiet_ctx ~trials ~scale:t5l_scale);
  ]

let silent = ignore

(* Scale-free, as `bench --large` runs it. *)
let run_sweep ?(workers = 1) ?(resume = false) ?t1l_scale ?t5l_scale ~dir
    ~trials () =
  let plans = plans ?t1l_scale ?t5l_scale ~trials () in
  match
    Engine.Plan.run_batch ~workers ~resume ~scale_free:true ~progress:false
      ~log:silent ~out_dir:dir plans
  with
  | Ok batch -> (batch, Engine.Sweep.aggregate ~store_dir:dir ~plans)
  | Error msg -> failwith msg

(* Rows minus the machine-dependent timing fields — what determinism is
   stated over. *)
let measured (r : Engine.Sweep.row) =
  ( ( r.Engine.Sweep.experiment,
      r.Engine.Sweep.series,
      r.Engine.Sweep.n,
      r.Engine.Sweep.trials ),
    ( r.Engine.Sweep.mean_max_steps,
      r.Engine.Sweep.min_max_steps,
      r.Engine.Sweep.max_max_steps,
      r.Engine.Sweep.mean_total_steps,
      r.Engine.Sweep.mean_space_used,
      r.Engine.Sweep.mean_max_name ) )

let measured_rows a = List.map measured a.Engine.Sweep.rows

(* ------------------------------------------------------------------ *)
(* Domain-count independence *)

let test_worker_count_independence () =
  with_temp_dir (fun dir1 ->
      with_temp_dir (fun dir4 ->
          let _, a1 = run_sweep ~workers:1 ~dir:dir1 ~trials:2 () in
          let _, a4 = run_sweep ~workers:4 ~dir:dir4 ~trials:2 () in
          checkb "1 worker and 4 workers measure identical rows" true
            (measured_rows a1 = measured_rows a4);
          checkb "artifact has rows" true (a1.Engine.Sweep.rows <> [])))

(* ------------------------------------------------------------------ *)
(* Resume: truncate the t1l store mid-line and re-execute *)

let test_resume_after_truncation () =
  with_temp_dir (fun dir ->
      let run, full = run_sweep ~dir ~trials:2 () in
      checkb "fresh sweep completes" true
        ((not run.Engine.Plan.interrupted)
        && List.for_all
             (fun (o : Engine.Plan.outcome) -> o.Engine.Plan.quarantined = 0)
             run.Engine.Plan.outcomes);
      let store = Engine.Sink.store_path ~dir ~experiment:"t1l" in
      let lines =
        let ic = open_in store in
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file ->
            close_in ic;
            List.rev acc
        in
        go []
      in
      let total = List.length lines in
      checkb "store holds enough records to truncate" true (total > 3);
      (* keep the first half and append a torn half-line, the on-disk
         state an interrupted run leaves behind *)
      let keep = total / 2 in
      let oc = open_out store in
      List.iteri
        (fun i line -> if i < keep then Printf.fprintf oc "%s\n" line)
        lines;
      output_string oc "{\"key\":\"t1l/torn";
      close_out oc;
      let resumed, again = run_sweep ~resume:true ~dir ~trials:2 () in
      let t1l_skipped =
        List.fold_left
          (fun acc (o : Engine.Plan.outcome) ->
            if o.Engine.Plan.experiment = "t1l" then acc + o.Engine.Plan.skipped
            else acc)
          0 resumed.Engine.Plan.outcomes
      in
      checki "resume skipped exactly the surviving t1l records" keep
        t1l_skipped;
      checkb "resumed aggregate equals the original" true
        (measured_rows full = measured_rows again))

(* Resuming under different parameters must be refused via the manifest. *)
let test_resume_parameter_mismatch () =
  with_temp_dir (fun dir ->
      let _ = run_sweep ~dir ~trials:2 () in
      match run_sweep ~resume:true ~dir ~trials:3 () with
      | _ -> Alcotest.fail "resume with different trials did not fail"
      | exception Failure _ -> ())

(* Resuming with a narrower t5l grid (a smaller --max-k) over a store
   written with a wider one passes the manifest check — the sweeps are
   scale-free — and must aggregate exactly the rows of a fresh narrow
   run, not the stored wider decades. *)
let test_resume_narrower_grid () =
  with_temp_dir (fun wide ->
      with_temp_dir (fun fresh ->
          let _, stored = run_sweep ~t5l_scale:1e-3 ~dir:wide ~trials:2 () in
          checkb "the wide store holds a t5l decade past 10^3" true
            (List.exists
               (fun (r : Engine.Sweep.row) ->
                 r.Engine.Sweep.experiment = "t5l" && r.Engine.Sweep.n > 1_000)
               stored.Engine.Sweep.rows);
          let _, narrow = run_sweep ~dir:fresh ~trials:2 () in
          let resumed, again = run_sweep ~resume:true ~dir:wide ~trials:2 () in
          checkb "the resume ran nothing" true
            (List.for_all
               (fun (o : Engine.Plan.outcome) -> o.Engine.Plan.executed = 0)
               resumed.Engine.Plan.outcomes);
          checki "same row count as a fresh narrow run"
            (List.length narrow.Engine.Sweep.rows)
            (List.length again.Engine.Sweep.rows);
          checkb "resumed narrow aggregate equals the fresh one" true
            (measured_rows narrow = measured_rows again)))

(* One rule for both grids: over a store wide in t1l and t5l, narrowing
   either one (a smaller --max-n or --max-k) is accepted alike and
   aggregates a fresh narrow run's rows. *)
let test_resume_narrower_either_grid () =
  with_temp_dir (fun wide ->
      let _ = run_sweep ~t1l_scale:1e-3 ~t5l_scale:1e-3 ~dir:wide ~trials:2 () in
      List.iter
        (fun (what, t1l_scale, t5l_scale) ->
          with_temp_dir (fun fresh ->
              let _, narrow =
                run_sweep ~t1l_scale ~t5l_scale ~dir:fresh ~trials:2 ()
              in
              let resumed, again =
                try
                  run_sweep ~resume:true ~t1l_scale ~t5l_scale ~dir:wide
                    ~trials:2 ()
                with Failure msg -> Alcotest.failf "%s refused: %s" what msg
              in
              checkb (what ^ ": the resume ran nothing") true
                (List.for_all
                   (fun (o : Engine.Plan.outcome) -> o.Engine.Plan.executed = 0)
                   resumed.Engine.Plan.outcomes);
              checkb (what ^ ": a fresh narrow run's rows") true
                (measured_rows narrow = measured_rows again)))
        [ ("narrower t1l", 1e-4, 1e-3); ("narrower t5l", 1e-3, 1e-4) ])

(* ------------------------------------------------------------------ *)
(* Artifact round-trip, audit, check *)

let test_artifact_round_trip () =
  let k = Engine.Sweep.kind in
  with_temp_dir (fun dir ->
      let _, art = run_sweep ~dir ~trials:2 () in
      checkb "round-trip preserves every row" true
        (Engine.Artifact.of_string k (k.Engine.Artifact.encode art) = Ok art);
      with_temp_dir (fun out ->
          let path = Engine.Artifact.save k ~dir:out art in
          checks "first save lands on BENCH_0.json" "BENCH_0.json"
            (Filename.basename path);
          let path1 = Engine.Artifact.save k ~dir:out art in
          checks "second save takes the next index" "BENCH_1.json"
            (Filename.basename path1);
          checkb "load round-trips" true (Engine.Artifact.load k path = Ok art)))

let test_audit_healthy_and_broken () =
  with_temp_dir (fun dir ->
      let _, art = run_sweep ~dir ~trials:2 () in
      checkb "fresh artifact audits clean" true (Engine.Sweep.kind.Engine.Artifact.audit art = []);
      (* drop a middle decade from one series: the grid is no longer
         consecutive decades *)
      let broken =
        {
          art with
          Engine.Sweep.rows =
            List.filter
              (fun (r : Engine.Sweep.row) ->
                not
                  (r.Engine.Sweep.series = "rebatch_paper"
                  && r.Engine.Sweep.n = 10_000))
              art.Engine.Sweep.rows
            @ [
                {
                  (List.hd art.Engine.Sweep.rows) with
                  Engine.Sweep.series = "rebatch_paper";
                  n = 100_000;
                };
              ];
        }
      in
      checkb "gappy decade grid is a problem" true
        (Engine.Sweep.kind.Engine.Artifact.audit broken <> []);
      let empty = { art with Engine.Sweep.rows = [] } in
      checkb "empty artifact is a problem" true
        (Engine.Sweep.kind.Engine.Artifact.audit empty <> []))

let test_check_gates () =
  with_temp_dir (fun dir ->
      let _, art = run_sweep ~dir ~trials:2 () in
      checkb "artifact checks against itself" true
        (Engine.Artifact.check Engine.Sweep.kind ~threshold:0.25 ~baseline:art ~current:art = []);
      (* a decade subset still passes against the full baseline — the CI
         smoke contract *)
      let subset =
        {
          art with
          Engine.Sweep.rows =
            List.filter
              (fun (r : Engine.Sweep.row) -> r.Engine.Sweep.n <= 1_000)
              art.Engine.Sweep.rows;
        }
      in
      checkb "decade subset passes the full baseline" true
        (Engine.Artifact.check Engine.Sweep.kind ~threshold:0.25 ~baseline:art ~current:subset = []);
      (* an allocating run fails outright, baseline or not *)
      let boxed =
        {
          art with
          Engine.Sweep.rows =
            List.map
              (fun (r : Engine.Sweep.row) ->
                { r with Engine.Sweep.words_per_op = 1.5 })
              art.Engine.Sweep.rows;
        }
      in
      checkb "allocation fails the check" true
        (Engine.Artifact.check Engine.Sweep.kind ~threshold:0.25 ~baseline:art ~current:boxed <> []);
      (* a series the baseline has never seen fails *)
      let novel =
        {
          art with
          Engine.Sweep.rows =
            List.map
              (fun (r : Engine.Sweep.row) ->
                { r with Engine.Sweep.series = "mystery" })
              art.Engine.Sweep.rows;
        }
      in
      checkb "unknown series fails the check" true
        (Engine.Artifact.check Engine.Sweep.kind ~threshold:0.25 ~baseline:art ~current:novel <> []);
      (* a step-complexity drift outside the band fails *)
      let drifted =
        {
          art with
          Engine.Sweep.rows =
            List.map
              (fun (r : Engine.Sweep.row) ->
                {
                  r with
                  Engine.Sweep.mean_max_steps =
                    (2. *. r.Engine.Sweep.mean_max_steps) +. 10.;
                })
              art.Engine.Sweep.rows;
        }
      in
      checkb "step drift fails the check" true
        (Engine.Artifact.check Engine.Sweep.kind ~threshold:0.25 ~baseline:art ~current:drifted
        <> []))

let test_series_label_parsing () =
  checks "series/n=k parses" "rebatch_paper"
    (Engine.Sweep.series_of_label "rebatch_paper/n=1000");
  checks "bare label is its own series" "doubling"
    (Engine.Sweep.series_of_label "doubling")

(* The per-decade trial attenuation the artifact's trial counts follow. *)
let test_trials_attenuation () =
  checki "small decades run full trials" 4
    (Harness.Exp_large.trials_at ~trials:4 1_000_000);
  checki "10^7 halves" 2 (Harness.Exp_large.trials_at ~trials:4 10_000_000);
  checki "10^8 quarters" 1 (Harness.Exp_large.trials_at ~trials:4 100_000_000);
  checki "never below one trial" 1
    (Harness.Exp_large.trials_at ~trials:1 100_000_000)

let suite =
  [
    ( "sweep.engine",
      [
        Alcotest.test_case "1-vs-4 worker independence" `Quick
          test_worker_count_independence;
        Alcotest.test_case "resume after store truncation" `Quick
          test_resume_after_truncation;
        Alcotest.test_case "resume refuses changed parameters" `Quick
          test_resume_parameter_mismatch;
        Alcotest.test_case "resume with a narrower grid" `Quick
          test_resume_narrower_grid;
        Alcotest.test_case "narrower t1l or t5l resumes alike" `Quick
          test_resume_narrower_either_grid;
      ] );
    ( "sweep.artifact",
      [
        Alcotest.test_case "round-trip and BENCH numbering" `Quick
          test_artifact_round_trip;
        Alcotest.test_case "audit: healthy, gappy, empty" `Quick
          test_audit_healthy_and_broken;
        Alcotest.test_case "check: subset, allocation, drift" `Quick
          test_check_gates;
        Alcotest.test_case "series label parsing" `Quick
          test_series_label_parsing;
        Alcotest.test_case "trial attenuation" `Quick test_trials_attenuation;
      ] );
  ]
