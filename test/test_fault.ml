(* Tests for the engine's fault-tolerance layer: quarantine store,
   deterministic retries, timeout/watchdog enforcement, graceful
   interruption, resume validation, and crash-recovery properties. *)

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

let value_of ~seed = [ ("v", float_of_int (seed land 0xffff)) ]

let ctx2 = Harness.Experiment.default_ctx ~seed:11 ~trials:2 ~scale:1.0 ()

let execute ?(workers = 2) ?(resume = false) ?(retries = 0) ?job_timeout
    ?should_stop ?grace ~dir exp =
  match
    Engine.Plan.execute ~workers ~resume ~progress:false ~retries ?job_timeout
      ?should_stop ?grace
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
(* Seed_tree: attempt level *)

let test_derive_attempt_zero_is_derive () =
  let d = Engine.Seed_tree.derive ~root:3 ~experiment:"t1" ~sweep_point:2 ~trial:4 in
  let d0 =
    Engine.Seed_tree.derive_attempt ~root:3 ~experiment:"t1" ~sweep_point:2
      ~trial:4 ~attempt:0
  in
  checki "attempt 0 is the schema-1 derivation" d d0;
  let d1 =
    Engine.Seed_tree.derive_attempt ~root:3 ~experiment:"t1" ~sweep_point:2
      ~trial:4 ~attempt:1
  in
  let d2 =
    Engine.Seed_tree.derive_attempt ~root:3 ~experiment:"t1" ~sweep_point:2
      ~trial:4 ~attempt:2
  in
  checkb "attempts give distinct seeds" true (d0 <> d1 && d1 <> d2 && d0 <> d2)

(* ------------------------------------------------------------------ *)
(* Fault: failure record round-trip and attempt accounting *)

let sample_failure =
  {
    Engine.Fault.key = "x/1/2";
    experiment = "x";
    sweep_point = 1;
    trial = 2;
    attempt = 3;
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

let test_attempt_counts () =
  with_temp_dir (fun dir ->
      let sink = Engine.Fault.create ~dir ~experiment:"x" ~append:false in
      let file = Engine.Fault.path sink in
      checkb "lazy sink: no file before first write" true
        (not (Sys.file_exists file));
      Engine.Fault.write sink { sample_failure with attempt = 0 };
      Engine.Fault.write sink { sample_failure with attempt = 1 };
      Engine.Fault.write sink
        { sample_failure with key = "x/9/9"; attempt = 0 };
      Engine.Fault.close sink;
      let counts = Engine.Fault.attempt_counts file in
      checki "two keys" 2 (Hashtbl.length counts);
      checki "x/1/2 burned 2 attempts" 2 (Hashtbl.find counts "x/1/2");
      checki "x/9/9 burned 1 attempt" 1 (Hashtbl.find counts "x/9/9");
      (* A fresh (non-append) sink removes the stale quarantine. *)
      let sink2 = Engine.Fault.create ~dir ~experiment:"x" ~append:false in
      checkb "fresh sink removed stale quarantine" true
        (not (Sys.file_exists file));
      Engine.Fault.close sink2)

(* ------------------------------------------------------------------ *)
(* Plan: isolation, retries, quarantine *)

let test_failing_job_quarantined_others_complete () =
  with_temp_dir (fun dir ->
      let exp =
        synth ~id:"synq" ~points:3 (fun ~p ~t ~seed ->
            if p = 1 && t = 0 then failwith "injected" else value_of ~seed)
      in
      let o = execute ~workers:4 ~retries:2 ~dir exp in
      checki "all six jobs settled" 6 o.Engine.Plan.executed;
      checki "exactly one job quarantined" 1 o.Engine.Plan.quarantined;
      checkb "summary names the key" true
        (o.Engine.Plan.failed_keys = [ "synq/1/0" ]);
      checki "retries+1 failure records" 3 o.Engine.Plan.failures;
      checkb "not interrupted" true (not o.Engine.Plan.interrupted);
      let records = sorted_records ~dir ~id:"synq" in
      checki "five successful records" 5 (List.length records);
      checkb "failing key absent from store" true
        (not (List.exists (fun r -> r.Engine.Sink.key = "synq/1/0") records));
      let fails = Engine.Fault.load o.Engine.Plan.failures_store in
      checki "three quarantine lines" 3 (List.length fails);
      List.iteri
        (fun i (f : Engine.Fault.failure) ->
          checks "key" "synq/1/0" f.Engine.Fault.key;
          checki "attempt index" i f.Engine.Fault.attempt;
          checki "seed matches the attempt derivation"
            (Engine.Seed_tree.derive_attempt ~root:11 ~experiment:"synq"
               ~sweep_point:1 ~trial:0 ~attempt:i)
            f.Engine.Fault.seed;
          checkb "error mentions the exception" true
            (String.length f.Engine.Fault.error > 0))
        fails)

let test_retry_deterministic_across_workers () =
  (* Fails exactly on attempt 0 of job (1, 1): the job raises iff it is
     handed that attempt's seed, so the retry sequence is a pure function
     of the coordinates — identical at any worker count. *)
  let bad_seed =
    Engine.Seed_tree.derive_attempt ~root:11 ~experiment:"synd" ~sweep_point:1
      ~trial:1 ~attempt:0
  in
  let exp =
    synth ~id:"synd" ~points:3 (fun ~p:_ ~t:_ ~seed ->
        if seed = bad_seed then failwith "flaky" else value_of ~seed)
  in
  with_temp_dir (fun dir_a ->
      with_temp_dir (fun dir_b ->
          let oa = execute ~workers:1 ~retries:1 ~dir:dir_a exp in
          let ob = execute ~workers:8 ~retries:1 ~dir:dir_b exp in
          checki "jobs=1: one failure" 1 oa.Engine.Plan.failures;
          checki "jobs=8: one failure" 1 ob.Engine.Plan.failures;
          checki "no quarantined jobs either way" 0
            (oa.Engine.Plan.quarantined + ob.Engine.Plan.quarantined);
          let ra = sorted_records ~dir:dir_a ~id:"synd" in
          let rb = sorted_records ~dir:dir_b ~id:"synd" in
          checki "same record count" (List.length ra) (List.length rb);
          List.iter2
            (fun a b ->
              checkb
                ("record " ^ a.Engine.Sink.key ^ " identical")
                true
                (Engine.Sink.equal_ignoring_wall a b))
            ra rb;
          let retried =
            List.find (fun r -> r.Engine.Sink.key = "synd/1/1") ra
          in
          checki "retried record carries attempt 1" 1
            retried.Engine.Sink.attempt;
          checki "and the attempt-1 seed"
            (Engine.Seed_tree.derive_attempt ~root:11 ~experiment:"synd"
               ~sweep_point:1 ~trial:1 ~attempt:1)
            retried.Engine.Sink.seed))

let test_resume_continues_retry_budget () =
  with_temp_dir (fun dir ->
      let exp =
        synth ~id:"synb" ~points:2 (fun ~p ~t ~seed ->
            if p = 0 && t = 0 then failwith "always" else value_of ~seed)
      in
      let ctx1 = Harness.Experiment.default_ctx ~seed:11 ~trials:1 ~scale:1.0 () in
      let exec ?(resume = false) ~retries () =
        match
          Engine.Plan.execute ~workers:2 ~resume ~progress:false ~retries
            ~log:(fun _ -> ())
            ~out_dir:dir ~ctx:ctx1 exp
        with
        | Some o -> o
        | None -> Alcotest.fail "no jobs view"
      in
      let o1 = exec ~retries:0 () in
      checki "first run: one failure line" 1 o1.Engine.Plan.failures;
      checki "first run: quarantined" 1 o1.Engine.Plan.quarantined;
      (* Resume with a bigger budget: attempts continue at 1, not 0. *)
      let o2 = exec ~resume:true ~retries:2 () in
      checki "resume skips the completed job" 1 o2.Engine.Plan.skipped;
      checki "resume burns the remaining budget" 2 o2.Engine.Plan.failures;
      checki "still quarantined" 1 o2.Engine.Plan.quarantined;
      let fails = Engine.Fault.load o2.Engine.Plan.failures_store in
      checki "three failure lines total" 3 (List.length fails);
      List.iteri
        (fun i (f : Engine.Fault.failure) ->
          checki "attempt sequence 0,1,2" i f.Engine.Fault.attempt)
        fails;
      (* Budget exhausted: a further resume re-runs nothing. *)
      let o3 = exec ~resume:true ~retries:2 () in
      checki "exhausted job not re-run" 0 o3.Engine.Plan.executed;
      checki "no new failure lines" 0 o3.Engine.Plan.failures;
      checki "reported as still quarantined" 1 o3.Engine.Plan.quarantined;
      checkb "by key" true (o3.Engine.Plan.failed_keys = [ "synb/0/0" ]))

let test_timeout_quarantines () =
  with_temp_dir (fun dir ->
      let exp =
        synth ~id:"synt" ~points:2 (fun ~p ~t ~seed ->
            if p = 0 && t = 0 then Unix.sleepf 0.08;
            value_of ~seed)
      in
      let ctx1 = Harness.Experiment.default_ctx ~seed:11 ~trials:1 ~scale:1.0 () in
      match
        Engine.Plan.execute ~workers:2 ~progress:false ~retries:0
          ~job_timeout:0.02
          ~log:(fun _ -> ())
          ~out_dir:dir ~ctx:ctx1 exp
      with
      | None -> Alcotest.fail "no jobs view"
      | Some o ->
        checki "slow job quarantined" 1 o.Engine.Plan.quarantined;
        checkb "fast job recorded" true
          (List.exists
             (fun r -> r.Engine.Sink.key = "synt/1/0")
             (sorted_records ~dir ~id:"synt"));
        let fails = Engine.Fault.load o.Engine.Plan.failures_store in
        checki "one failure line" 1 (List.length fails);
        let f = List.hd fails in
        checkb "error is a timeout" true
          (String.length f.Engine.Fault.error >= 7
          && String.sub f.Engine.Fault.error 0 7 = "timeout"))

let test_watchdog_abandons_stuck_job () =
  with_temp_dir (fun dir ->
      let exp =
        synth ~id:"synw" ~points:2 (fun ~p ~t ~seed ->
            if p = 0 && t = 0 then Unix.sleepf 0.8;
            value_of ~seed)
      in
      let ctx1 = Harness.Experiment.default_ctx ~seed:11 ~trials:1 ~scale:1.0 () in
      let t0 = Unix.gettimeofday () in
      match
        Engine.Plan.execute ~workers:2 ~progress:false ~retries:0
          ~job_timeout:0.05 ~grace:0.05
          ~log:(fun _ -> ())
          ~out_dir:dir ~ctx:ctx1 exp
      with
      | None -> Alcotest.fail "no jobs view"
      | Some o ->
        let elapsed = Unix.gettimeofday () -. t0 in
        checkb "returned well before the stuck job finished" true
          (elapsed < 0.7);
        checki "stuck job quarantined" 1 o.Engine.Plan.quarantined;
        checkb "fast job recorded" true
          (List.exists
             (fun r -> r.Engine.Sink.key = "synw/1/0")
             (sorted_records ~dir ~id:"synw"));
        let fails = Engine.Fault.load o.Engine.Plan.failures_store in
        checki "one failure line" 1 (List.length fails);
        let f = List.hd fails in
        checkb "error names the watchdog" true
          (String.length f.Engine.Fault.error >= 8
          && String.sub f.Engine.Fault.error 0 8 = "watchdog");
        (* Let the parked domain wake and exit before the temp dir
           teardown races with it. *)
        Unix.sleepf 0.8)

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
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
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
        ~resume:false ~status:"completed" ~retries:2 ~job_timeout:(Some 30.)
        ~ctx;
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
        checks "retries" "2" (get "retries");
        checks "job_timeout" "30" (get "job_timeout");
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
    attempt = 0;
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
      let completed = Engine.Checkpoint.completed_keys store in
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
        Alcotest.test_case "seed_tree: attempt level" `Quick
          test_derive_attempt_zero_is_derive;
        Alcotest.test_case "fault: failure round-trip" `Quick
          test_failure_roundtrip;
        Alcotest.test_case "fault: attempt counts + lazy sink" `Quick
          test_attempt_counts;
        Alcotest.test_case "plan: failing job quarantined, others complete"
          `Quick test_failing_job_quarantined_others_complete;
        Alcotest.test_case "plan: retries deterministic across workers" `Quick
          test_retry_deterministic_across_workers;
        Alcotest.test_case "plan: resume continues retry budget" `Quick
          test_resume_continues_retry_budget;
        Alcotest.test_case "plan: job timeout quarantines" `Quick
          test_timeout_quarantines;
        Alcotest.test_case "plan: watchdog abandons stuck job" `Quick
          test_watchdog_abandons_stuck_job;
        Alcotest.test_case "plan: interrupt drains and resumes" `Quick
          test_interrupt_drains_and_resumes;
        Alcotest.test_case "checkpoint: malformed lines counted" `Quick
          test_scan_counts_malformed;
        Alcotest.test_case "checkpoint: manifest validation" `Quick
          test_validate_manifest;
        Alcotest.test_case "manifest: round-trip with fault fields" `Quick
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
