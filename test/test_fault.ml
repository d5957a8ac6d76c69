(* Tests for the engine's fault-tolerance layer: quarantine store,
   one run per job on its own seed, graceful interruption, resume
   validation, and crash-recovery properties. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let temp_dir () = Filename.temp_dir "fault_test" ""

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* A synthetic experiment: [points] sweep points x [ctx.trials] trials,
   with an injectable per-job body.  Values are a pure function of the
   seed so determinism checks are meaningful. *)
let synth ~id ~points body : Harness.Experiment.t =
  {
    Harness.Experiment.id;
    title = "synthetic";
    claim = "test";
    body =
      Harness.Experiment.Trials
        {
          jobs =
            (fun ctx ->
              List.concat_map
                (fun p ->
                  List.init ctx.Harness.Experiment.trials (fun t ->
                      {
                        Harness.Experiment.sweep_point = p;
                        point_label = Printf.sprintf "p=%d" p;
                        trial = t;
                        params = [ ("p", float_of_int p) ];
                        run_job = (fun ~seed -> body ~p ~t ~seed);
                      }))
                (List.init points Fun.id));
          tables = (fun _ _ -> ());
        };
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let value_of ~seed = [ ("v", float_of_int (seed land 0xffff)) ]

let ctx2 = Harness.Experiment.default_ctx ~seed:11 ~trials:2 ~scale:1.0 ()

let healthy id = synth ~id ~points:2 (fun ~p:_ ~t:_ ~seed -> value_of ~seed)

let execute ?(workers = 2) ?(resume = false) ?should_stop ~dir exp =
  match
    Engine.Plan.execute ~workers ~resume ~progress:false ?should_stop
      ~log:(fun _ -> ())
      ~out_dir:dir ~ctx:ctx2 exp
  with
  | Some o -> o
  | None -> Alcotest.fail "synthetic experiment lost its jobs view"

let sorted_records ~dir ~id =
  List.sort
    (fun a b -> compare a.Engine.Sink.key b.Engine.Sink.key)
    (Engine.Checkpoint.records (Engine.Sink.store_path ~dir ~experiment:id))

(* ------------------------------------------------------------------ *)
(* Fault: failure record round-trip *)

let sample_failure =
  {
    Engine.Fault.key = "x/1/2";
    experiment = "x";
    sweep_point = 1;
    trial = 2;
    seed = 987654321;
    error = "Failure(\"boom\")";
    backtrace = "Raised at line 1\nCalled from line 2\n";
    wall_ns = 1234.5;
  }

let test_failure_roundtrip () =
  let line = Engine.Fault.failure_to_json sample_failure in
  checkb "one line" true (not (String.contains line '\n'));
  match Engine.Fault.failure_of_json line with
  | None -> Alcotest.fail "failure round-trip failed to parse"
  | Some f ->
    checkb "round-trip preserves the failure" true (f = sample_failure);
    checks "backtrace with newlines survives" sample_failure.Engine.Fault.backtrace
      f.Engine.Fault.backtrace;
    checkb "garbage rejected" true
      (Engine.Fault.failure_of_json (String.sub line 0 20) = None)

(* ------------------------------------------------------------------ *)
(* Plan: isolation and quarantine *)

let derive_seed ~experiment ~sweep_point ~trial =
  Engine.Seed_tree.derive ~root:11 ~experiment ~sweep_point ~trial

let test_failing_job_quarantined_others_complete () =
  (* The job raises iff it is handed its own derive seed: the engine
     must run it exactly once, on that seed, and store no record. *)
  let bad_seed = derive_seed ~experiment:"synq" ~sweep_point:1 ~trial:0 in
  let exp =
    synth ~id:"synq" ~points:3 (fun ~p:_ ~t:_ ~seed ->
        if seed = bad_seed then failwith "injected" else value_of ~seed)
  in
  with_temp_dir (fun dir ->
      let o = execute ~workers:4 ~dir exp in
      checki "all six jobs settled" 6 o.Engine.Plan.executed;
      checki "exactly one job quarantined" 1 o.Engine.Plan.quarantined;
      checkb "summary names the key" true
        (o.Engine.Plan.failed_keys = [ "synq/1/0" ]);
      checkb "not interrupted" true (not o.Engine.Plan.interrupted);
      let records = sorted_records ~dir ~id:"synq" in
      checki "five successful records" 5 (List.length records);
      checkb "failing key absent from store" true
        (not (List.exists (fun r -> r.Engine.Sink.key = "synq/1/0") records));
      (match Engine.Fault.load o.Engine.Plan.failures_store with
      | [ f ] ->
        checks "key" "synq/1/0" f.Engine.Fault.key;
        checki "seed is the job's derive seed" bad_seed f.Engine.Fault.seed;
        checks "error names the exception" "Failure(\"injected\")"
          f.Engine.Fault.error
      | fails ->
        Alcotest.failf "expected one quarantine line, got %d"
          (List.length fails));
      (* A fresh clean run under the same id removes the quarantine and,
         writing no failure, leaves no file behind. *)
      ignore (execute ~dir (healthy "synq"));
      checkb "no quarantine file after a clean run" false
        (Sys.file_exists o.Engine.Plan.failures_store))

let test_interrupt_drains_and_resumes () =
  (* The job body bumps a counter that should_stop watches, so the stop
     request genuinely arrives mid-run. *)
  let started = Atomic.make 0 in
  let exp =
    synth ~id:"syni" ~points:4 (fun ~p:_ ~t:_ ~seed ->
        ignore (Atomic.fetch_and_add started 1);
        value_of ~seed)
  in
  let ctx4 = Harness.Experiment.default_ctx ~seed:11 ~trials:4 ~scale:1.0 () in
  let exec ?should_stop ?(resume = false) ~dir () =
    match
      Engine.Plan.execute ~workers:2 ~resume ~progress:false ?should_stop
        ~log:(fun _ -> ())
        ~out_dir:dir ~ctx:ctx4 exp
    with
    | Some o -> o
    | None -> Alcotest.fail "no jobs view"
  in
  with_temp_dir (fun dir_full ->
      with_temp_dir (fun dir ->
          let full = exec ~dir:dir_full () in
          checki "uninterrupted run completes all" 16 full.Engine.Plan.executed;
          Atomic.set started 0;
          let o = exec ~should_stop:(fun () -> Atomic.get started >= 5) ~dir () in
          checkb "flagged as interrupted" true o.Engine.Plan.interrupted;
          checkb "some jobs were left unclaimed" true
            (o.Engine.Plan.executed < 16);
          checkb "in-flight jobs drained into the store" true
            (List.length (sorted_records ~dir ~id:"syni")
            = o.Engine.Plan.executed);
          let o2 = exec ~resume:true ~dir () in
          checkb "resume completes the rest" true
            (not o2.Engine.Plan.interrupted);
          checki "no job lost or duplicated" 16
            (o2.Engine.Plan.skipped + o2.Engine.Plan.executed);
          let ra = sorted_records ~dir:dir_full ~id:"syni" in
          let rb = sorted_records ~dir ~id:"syni" in
          checki "full record set" 16 (List.length rb);
          List.iter2
            (fun a b ->
              checkb "interrupted+resumed equals uninterrupted" true
                (Engine.Sink.equal_ignoring_wall a b))
            ra rb))

(* ------------------------------------------------------------------ *)
(* Batch driver: Plan.run_batch, behind both `repro_cli run --out` (one
   ctx for every experiment) and `repro_cli bench --large` (one ctx per
   experiment) *)

let run_batch ?resume ?should_stop ~dir plans =
  Engine.Plan.run_batch ~workers:2 ?resume ~progress:false ?should_stop
    ~log:(fun _ -> ())
    ~out_dir:dir plans

let batch_ok ?resume ?should_stop ~dir plans =
  match run_batch ?resume ?should_stop ~dir plans with
  | Ok b -> b
  | Error msg -> Alcotest.fail ("batch refused: " ^ msg)

let manifest_status ~dir =
  match Engine.Sink.read_manifest ~dir with
  | None -> "<no manifest>"
  | Some m -> Option.value ~default:"<no status>" (List.assoc_opt "status" m)

let ran (b : Engine.Plan.batch) =
  List.map (fun (o : Engine.Plan.outcome) -> o.experiment) b.outcomes

let with_body body (e : Harness.Experiment.t) = { e with body }

let test_batch_failed_experiment_does_not_stop_next () =
  let broken =
    with_body
      (Harness.Experiment.Trials
         { jobs = (fun _ -> failwith "no plan"); tables = (fun _ _ -> ()) })
      (healthy "synb")
  in
  with_temp_dir (fun dir ->
      let b = batch_ok ~dir [ (broken, ctx2); (healthy "syno", ctx2) ] in
      checkb "the failure is reported with its message" true
        (b.Engine.Plan.failed = [ ("synb", "no plan") ]);
      checkb "the second experiment still ran" true (ran b = [ "syno" ]);
      checki "... to completion" 4
        (List.length (sorted_records ~dir ~id:"syno"));
      checkb "not interrupted" false b.Engine.Plan.interrupted;
      checks "manifest status" "failed" (manifest_status ~dir))

let test_batch_quarantine_status () =
  let quarantining =
    synth ~id:"synq" ~points:2 (fun ~p ~t ~seed ->
        if p = 1 && t = 1 then failwith "injected" else value_of ~seed)
  in
  let serial =
    with_body
      (Harness.Experiment.Serial
         (fun _ -> Alcotest.fail "the driver ran a Serial body"))
      (healthy "syns")
  in
  let ctx_wide = { ctx2 with Harness.Experiment.scale = 2.0 } in
  List.iter
    (fun (shape, plans) ->
      with_temp_dir (fun dir ->
          let b = batch_ok ~dir plans in
          checks (shape ^ ": manifest status") "quarantined"
            (manifest_status ~dir);
          checkb (shape ^ ": both job-grain experiments ran") true
            (List.sort compare (ran b) = [ "syno"; "synq" ]);
          checkb (shape ^ ": one job quarantined") true
            (List.concat_map
               (fun (o : Engine.Plan.outcome) -> o.failed_keys)
               b.Engine.Plan.outcomes
            = [ "synq/1/1" ])))
    [
      ( "run --out",
        [ (quarantining, ctx2); (serial, ctx2); (healthy "syno", ctx2) ] );
      ("bench --large", [ (healthy "syno", ctx2); (quarantining, ctx_wide) ]);
    ];
  with_temp_dir (fun dir ->
      let b = batch_ok ~dir [ (serial, ctx2); (healthy "syno", ctx2) ] in
      checkb "Serial experiments are listed, not run" true
        (List.map
           (fun (e : Harness.Experiment.t) -> e.id)
           b.Engine.Plan.serial
        = [ "syns" ]);
      checkb "nothing is written for them" false
        (Sys.file_exists (Engine.Sink.store_path ~dir ~experiment:"syns"));
      checks "a clean batch is completed" "completed" (manifest_status ~dir))

let test_batch_resume_mismatch_writes_nothing () =
  with_temp_dir (fun dir ->
      ignore (batch_ok ~dir [ (healthy "syno", ctx2) ]);
      let manifest = Filename.concat dir "manifest.json" in
      let store = Engine.Sink.store_path ~dir ~experiment:"syno" in
      let before = (read_file manifest, read_file store) in
      let reseeded = { ctx2 with Harness.Experiment.seed = 999 } in
      (match
         run_batch ~resume:true ~dir
           [ (healthy "syno", reseeded); (healthy "synn", reseeded) ]
       with
      | Ok _ -> Alcotest.fail "resume with a different seed was accepted"
      | Error msg ->
        checkb "the error names the seed" true (contains msg "\"seed\""));
      checkb "manifest and store untouched" true
        (before = (read_file manifest, read_file store));
      checkb "no store opened for the next experiment" false
        (Sys.file_exists (Engine.Sink.store_path ~dir ~experiment:"synn")))

let test_batch_interrupt_skips_rest () =
  let stop = Atomic.make false in
  let stopping =
    synth ~id:"syni" ~points:1 (fun ~p:_ ~t:_ ~seed ->
        Atomic.set stop true;
        value_of ~seed)
  in
  with_temp_dir (fun dir ->
      let b =
        batch_ok
          ~should_stop:(fun () -> Atomic.get stop)
          ~dir
          [ (stopping, ctx2); (healthy "syno", ctx2) ]
      in
      checkb "interrupted" true b.Engine.Plan.interrupted;
      checkb "the next experiment was not started" true (ran b = [ "syni" ]);
      checks "manifest status" "interrupted" (manifest_status ~dir))

(* The job raises on its own seed, so every run of it fails the same
   way; the message carries the seed the job was handed. *)
let always_failing =
  synth ~id:"synr" ~points:2 (fun ~p ~t ~seed ->
      if p = 0 && t = 0 then failwith (Printf.sprintf "bad seed %d" seed)
      else value_of ~seed)

let test_resume_reruns_quarantined_job () =
  let seed = derive_seed ~experiment:"synr" ~sweep_point:0 ~trial:0 in
  let quarantine ~dir =
    Engine.Fault.load (Engine.Fault.store_path ~dir ~experiment:"synr")
  in
  with_temp_dir (fun dir ->
      ignore (batch_ok ~dir [ (always_failing, ctx2) ]);
      checks "first run: manifest" "quarantined" (manifest_status ~dir);
      let first = quarantine ~dir in
      let b = batch_ok ~resume:true ~dir [ (always_failing, ctx2) ] in
      let o = List.hd b.Engine.Plan.outcomes in
      checki "resume skips the three recorded jobs" 3 o.Engine.Plan.skipped;
      checki "and re-runs the quarantined one" 1 o.Engine.Plan.executed;
      checkb "which is quarantined again" true
        (o.Engine.Plan.failed_keys = [ "synr/0/0" ]);
      (match quarantine ~dir with
      | [ f ] ->
        checki "on its own seed" seed f.Engine.Fault.seed;
        checks "with the same failure"
          (Printf.sprintf "Failure(\"bad seed %d\")" seed)
          f.Engine.Fault.error;
        checkb "the line matches the first run's" true
          (List.map
             (fun (f : Engine.Fault.failure) ->
               (f.key, f.seed, f.error, f.backtrace))
             first
          = [ (f.key, f.seed, f.error, f.backtrace) ])
      | fails ->
        Alcotest.failf "expected one quarantine line, got %d"
          (List.length fails));
      checkb "still no record for the job" false
        (List.exists
           (fun r -> r.Engine.Sink.key = "synr/0/0")
           (sorted_records ~dir ~id:"synr"));
      checks "manifest stays quarantined" "quarantined" (manifest_status ~dir))

(* repro_cli doctor over an engine store: exit 0 when clean, 1 when a
   job is quarantined. *)
let doctor dir =
  let out = Filename.concat dir "doctor.txt" in
  let rc =
    Sys.command
      (Filename.quote_command "../bin/repro_cli.exe" ~stdout:out
         [ "doctor"; dir ])
  in
  let text = read_file out in
  Sys.remove out;
  (rc, text)

let test_doctor_flags_quarantine () =
  with_temp_dir (fun dir ->
      ignore (batch_ok ~dir [ (healthy "syno", ctx2) ]);
      let rc, text = doctor dir in
      checki ("clean store: exit 0\n" ^ text) 0 rc);
  with_temp_dir (fun dir ->
      ignore (batch_ok ~dir [ (always_failing, ctx2) ]);
      let rc, text = doctor dir in
      checki "quarantined store: exit 1" 1 rc;
      checkb ("the problem names the job\n" ^ text) true
        (contains text "PROBLEM  synr.jsonl: job synr/0/0 quarantined"))

(* ------------------------------------------------------------------ *)
(* Checkpoint: scan and manifest validation *)

let test_scan_counts_malformed () =
  with_temp_dir (fun dir ->
      let exp = synth ~id:"sync" ~points:2 (fun ~p:_ ~t:_ ~seed -> value_of ~seed) in
      let o = execute ~dir exp in
      let store = o.Engine.Plan.store in
      let lines =
        let ic = open_in store in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let rec go acc =
              match input_line ic with
              | exception End_of_file -> List.rev acc
              | l -> go (l :: acc)
            in
            go [])
      in
      checki "four records" 4 (List.length lines);
      (* Corrupt line 2 mid-file, truncate the tail of the last line. *)
      let oc = open_out store in
      List.iteri
        (fun i l ->
          if i = 1 then output_string oc "{\"half\": \n"
          else if i = 3 then output_string oc (String.sub l 0 (String.length l / 2))
          else (output_string oc l; output_char oc '\n'))
        lines;
      close_out oc;
      let scan = Engine.Checkpoint.scan_store store in
      checki "two intact records" 2 scan.Engine.Checkpoint.records;
      checki "one malformed mid-file line" 1 scan.Engine.Checkpoint.malformed_mid;
      checkb "truncated tail detected" true scan.Engine.Checkpoint.malformed_tail;
      checki "no duplicates" 0 scan.Engine.Checkpoint.duplicates;
      (* Resume surfaces the malformed count and repairs the store. *)
      let o2 = execute ~resume:true ~dir exp in
      checki "outcome reports the malformed line" 1 o2.Engine.Plan.malformed;
      checki "the two broken jobs re-ran" 2 o2.Engine.Plan.executed;
      let scan2 = Engine.Checkpoint.scan_store store in
      checki "store complete again" 4 (Hashtbl.length scan2.Engine.Checkpoint.keys);
      checki "no duplicate keys after resume" 0 scan2.Engine.Checkpoint.duplicates)

let manifest_of ~seed ~trials ~scale ~ids =
  [
    ("schema", Engine.Sink.schema_version);
    ("experiments", String.concat " " ids);
    ("seed", string_of_int seed);
    ("trials", string_of_int trials);
    ("scale", Printf.sprintf "%g" scale);
  ]

let test_validate_manifest () =
  let manifest = manifest_of ~seed:7 ~trials:5 ~scale:0.5 ~ids:[ "t1"; "t9" ] in
  let ok =
    Engine.Checkpoint.validate_manifest ~manifest ~ids:[ "t9" ] ~seed:7
      ~trials:5 ~scale:0.5
  in
  checkb "matching invocation validates" true (ok = Ok ());
  let expect_error ~field r =
    match r with
    | Ok () -> Alcotest.fail ("expected a mismatch on " ^ field)
    | Error msg ->
      checkb
        (Printf.sprintf "error cites field %S: %s" field msg)
        true
        (contains msg (Printf.sprintf "%S" field))
  in
  expect_error ~field:"seed"
    (Engine.Checkpoint.validate_manifest ~manifest ~ids:[ "t9" ] ~seed:8
       ~trials:5 ~scale:0.5);
  expect_error ~field:"trials"
    (Engine.Checkpoint.validate_manifest ~manifest ~ids:[ "t9" ] ~seed:7
       ~trials:6 ~scale:0.5);
  expect_error ~field:"scale"
    (Engine.Checkpoint.validate_manifest ~manifest ~ids:[ "t9" ] ~seed:7
       ~trials:5 ~scale:1.0);
  expect_error ~field:"experiments"
    (Engine.Checkpoint.validate_manifest ~manifest ~ids:[ "t2" ] ~seed:7
       ~trials:5 ~scale:0.5);
  expect_error ~field:"schema"
    (Engine.Checkpoint.validate_manifest
       ~manifest:(("schema", "1") :: List.tl manifest)
       ~ids:[ "t9" ] ~seed:7 ~trials:5 ~scale:0.5);
  (* Fields an older manifest lacks are skipped, not failed. *)
  checkb "missing fields are skipped" true
    (Engine.Checkpoint.validate_manifest
       ~manifest:[ ("seed", "7") ]
       ~ids:[ "t9" ] ~seed:7 ~trials:99 ~scale:9.9
    = Ok ())

let test_manifest_roundtrip () =
  with_temp_dir (fun dir ->
      let ctx = Harness.Experiment.default_ctx ~seed:7 ~trials:5 ~scale:0.5 () in
      Engine.Plan.write_manifest ~out_dir:dir ~ids:[ "t1"; "t9" ] ~workers:4
        ~resume:false ~status:"completed" ~ctx;
      match Engine.Sink.read_manifest ~dir with
      | None -> Alcotest.fail "manifest did not read back"
      | Some m ->
        let get k =
          match List.assoc_opt k m with
          | Some v -> v
          | None -> Alcotest.fail ("manifest missing field " ^ k)
        in
        checks "schema" Engine.Sink.schema_version (get "schema");
        checks "seed" "7" (get "seed");
        checks "status" "completed" (get "status");
        checks "workers" "4" (get "workers");
        checkb "no retry or timeout fields" false
          (List.mem_assoc "retries" m || List.mem_assoc "job_timeout" m);
        checkb "git field present" true (String.length (get "git") > 0);
        checkb "validates against itself" true
          (Engine.Checkpoint.validate_manifest ~manifest:m ~ids:[ "t9" ]
             ~seed:7 ~trials:5 ~scale:0.5
          = Ok ()))

(* ------------------------------------------------------------------ *)
(* Property: resume from a store truncated at any byte offset recovers a
   record-identical result set. *)

let qcheck_truncated_resume =
  (* One pristine uninterrupted serial run, reused across QCheck cases. *)
  let exp =
    synth ~id:"synr" ~points:3 (fun ~p ~t ~seed ->
        ignore (p, t);
        value_of ~seed)
  in
  let pristine = lazy (
    let dir = temp_dir () in
    let o = execute ~workers:1 ~dir exp in
    let ic = open_in_bin o.Engine.Plan.store in
    let bytes =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let records = sorted_records ~dir ~id:"synr" in
    remove_tree dir;
    (bytes, records))
  in
  QCheck.Test.make ~name:"resume from any truncation offset is lossless"
    ~count:12
    QCheck.(int_range 0 10_000)
    (fun permille ->
      let bytes, full = Lazy.force pristine in
      let cut = permille * String.length bytes / 10_000 in
      with_temp_dir (fun dir ->
          let store = Engine.Sink.store_path ~dir ~experiment:"synr" in
          let oc = open_out_bin store in
          output_string oc (String.sub bytes 0 cut);
          close_out oc;
          let o = execute ~workers:2 ~resume:true ~dir exp in
          ignore o;
          let resumed = sorted_records ~dir ~id:"synr" in
          List.length resumed = List.length full
          && List.for_all2 Engine.Sink.equal_ignoring_wall resumed full))

(* ------------------------------------------------------------------ *)
(* Io_fault: injected write failures under the stores *)

let sample_record ~trial : Engine.Sink.record =
  {
    Engine.Sink.key = Printf.sprintf "synf/0/%d" trial;
    experiment = "synf";
    sweep_point = 0;
    point_label = "p=0";
    trial;
    seed = 1000 + trial;
    params = [ ("p", 0.) ];
    values = [ ("v", float_of_int (77 * trial)) ];
    wall_ns = 1.0;
  }

(* Write A, fail B's write the prescribed way, then "resume": re-open
   append (terminating any torn tail) and re-write exactly the settled
   jobs that have no record.  The store must end with each key exactly
   once, regardless of where the failure cut. *)
let sink_killpoint ~kind ~expect_b_durable () =
  with_temp_dir (fun dir ->
      let a = sample_record ~trial:0 and b = sample_record ~trial:1 in
      let sink = Engine.Sink.create ~dir ~experiment:"synf" ~append:false in
      Engine.Sink.write sink a;
      Engine.Io_fault.arm { Engine.Io_fault.op = 0; kind };
      (match Engine.Sink.write sink b with
      | exception Engine.Io_fault.Injected _ -> ()
      | () -> Alcotest.fail "armed fault did not fire");
      Engine.Io_fault.disarm ();
      Engine.Sink.close sink;
      let store = Engine.Sink.store_path ~dir ~experiment:"synf" in
      let completed =
        (Engine.Checkpoint.scan_store store).Engine.Checkpoint.keys
      in
      checkb "A settled and survived" true
        (Hashtbl.mem completed a.Engine.Sink.key);
      checkb "B durability matches the fault kind" expect_b_durable
        (Hashtbl.mem completed b.Engine.Sink.key);
      (* Resume: append mode, dedup on completed keys. *)
      let sink = Engine.Sink.create ~dir ~experiment:"synf" ~append:true in
      if not (Hashtbl.mem completed b.Engine.Sink.key) then
        Engine.Sink.write sink b;
      Engine.Sink.close sink;
      let scan = Engine.Checkpoint.scan_store store in
      checki "both jobs settled exactly once" 2
        (Hashtbl.length scan.Engine.Checkpoint.keys);
      checki "no duplicated records" 0 scan.Engine.Checkpoint.duplicates;
      let final = sorted_records ~dir ~id:"synf" in
      checkb "records readable and equal to intent" true
        (List.for_all2 Engine.Sink.equal_ignoring_wall final [ a; b ]))

let test_io_fault_drop () = sink_killpoint ~kind:Engine.Io_fault.Drop ~expect_b_durable:false ()

let test_io_fault_after_append () =
  sink_killpoint ~kind:Engine.Io_fault.After_append ~expect_b_durable:true ()

(* Sweep the short-write cut over every byte position of the record:
   only the full-line prefix settles the job; every shorter prefix is a
   torn tail that resume terminates and re-runs. *)
let test_io_fault_short_sweep () =
  let b = sample_record ~trial:1 in
  let payload_len =
    String.length (Engine.Sink.record_to_json b) + 1 (* '\n' *)
  in
  for cut = 0 to payload_len - 1 do
    sink_killpoint
      ~kind:(Engine.Io_fault.Short cut)
      ~expect_b_durable:(cut = payload_len - 1)
      ()
  done

(* End to end through the engine: fail each record write of a run in
   each way, then --resume must reconstruct exactly the fault-free
   store. *)
let test_io_fault_engine_sweep () =
  let exp =
    synth ~id:"synf" ~points:2 (fun ~p ~t ~seed ->
        ignore (p, t);
        value_of ~seed)
  in
  let pristine =
    with_temp_dir (fun dir ->
        ignore (execute ~workers:1 ~dir exp);
        sorted_records ~dir ~id:"synf")
  in
  let writes = List.length pristine in
  checki "engine sweep covers all four record writes" 4 writes;
  List.iter
    (fun kind ->
      for op = 0 to writes - 1 do
        with_temp_dir (fun dir ->
            Engine.Io_fault.arm { Engine.Io_fault.op; kind };
            (match execute ~workers:2 ~dir exp with
            | exception Engine.Io_fault.Injected _ -> ()
            | _o ->
              Engine.Io_fault.disarm ();
              Alcotest.fail "injected write failure did not abort the run");
            Engine.Io_fault.disarm ();
            ignore (execute ~workers:2 ~resume:true ~dir exp);
            let resumed = sorted_records ~dir ~id:"synf" in
            let scan =
              Engine.Checkpoint.scan_store
                (Engine.Sink.store_path ~dir ~experiment:"synf")
            in
            checki "no duplicates after resume" 0
              scan.Engine.Checkpoint.duplicates;
            checkb "resume reconstructs the fault-free store" true
              (List.length resumed = List.length pristine
              && List.for_all2 Engine.Sink.equal_ignoring_wall resumed
                   pristine))
      done)
    [ Engine.Io_fault.Drop; Engine.Io_fault.Short 5; Engine.Io_fault.After_append ]

let suite =
  [
    ( "fault",
      [
        Alcotest.test_case "fault: failure round-trip" `Quick
          test_failure_roundtrip;
        Alcotest.test_case "plan: failing job quarantined, others complete"
          `Quick test_failing_job_quarantined_others_complete;
        Alcotest.test_case "plan: interrupt drains and resumes" `Quick
          test_interrupt_drains_and_resumes;
        Alcotest.test_case "batch: a failed experiment does not stop the next"
          `Quick test_batch_failed_experiment_does_not_stop_next;
        Alcotest.test_case "batch: quarantine sets the manifest status"
          `Quick test_batch_quarantine_status;
        Alcotest.test_case "batch: mismatched resume writes nothing" `Quick
          test_batch_resume_mismatch_writes_nothing;
        Alcotest.test_case "batch: interrupt skips the rest" `Quick
          test_batch_interrupt_skips_rest;
        Alcotest.test_case "plan: resume re-runs a quarantined job with its own seed"
          `Quick test_resume_reruns_quarantined_job;
        Alcotest.test_case "doctor: a quarantined job exits 1" `Quick
          test_doctor_flags_quarantine;
        Alcotest.test_case "checkpoint: malformed lines counted" `Quick
          test_scan_counts_malformed;
        Alcotest.test_case "checkpoint: manifest validation" `Quick
          test_validate_manifest;
        Alcotest.test_case "manifest: round-trip" `Quick
          test_manifest_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_truncated_resume;
        Alcotest.test_case "io_fault: dropped write re-runs" `Quick
          test_io_fault_drop;
        Alcotest.test_case "io_fault: durable-but-unacked write dedups" `Quick
          test_io_fault_after_append;
        Alcotest.test_case "io_fault: short-write kill-point sweep" `Quick
          test_io_fault_short_sweep;
        Alcotest.test_case "io_fault: engine kill-point sweep resumes" `Slow
          test_io_fault_engine_sweep;
      ] );
  ]
