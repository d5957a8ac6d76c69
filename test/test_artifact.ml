(* The committed benchmark artifacts and the Artifact kinds that read
   them: the bench/*.json baselines decode, audit clean and re-encode to
   their own bytes; each service soak kind's audit and regress gates
   fire exactly their own finding per breach; doctor's dispatch on the
   kind field flags unknown, misfiled, truncated and failing files. *)

open Service
module A = Engine.Artifact

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let kinds =
  A.
    [
      Any Engine.Kernel_bench.kind;
      Any Engine.Sweep.kind;
      Any Service_bench.kind;
      Any Recovery_bench.kind;
      Any Overload_bench.kind;
    ]

let read path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Committed artifacts *)

let committed =
  [
    ("BENCH_0.json", "bench");
    ("BENCH_1.json", "bench-large");
    ("BENCH_SERVICE_0.json", "bench-service");
    ("BENCH_SERVICE_1.json", "bench-service-recovery");
    ("BENCH_SERVICE_2.json", "bench-service-overload");
  ]

(* BENCH_SERVICE_0.json predates the survivability work: it has no
   "reconnects" field, which the bench-service codec reads as 0 and
   always writes, right after "leaked".  Its canonical re-encoding is
   therefore the committed bytes with "reconnects":0 inserted there;
   every other committed artifact re-encodes to exactly its bytes. *)
let expected_reencoding file text =
  if file <> "BENCH_SERVICE_0.json" then text
  else
    let anchor = {|"leaked":0,|} in
    let rec find i =
      if String.sub text i (String.length anchor) = anchor then i
      else find (i + 1)
    in
    let cut = find 0 + String.length anchor in
    String.sub text 0 cut ^ {|"reconnects":0,|}
    ^ String.sub text cut (String.length text - cut)

let test_committed_artifacts () =
  List.iter
    (fun (file, name) ->
      let path = Filename.concat "../bench" file in
      let text = read path in
      (match A.inspect kinds path with
      | Some _, [] -> ()
      | None, problems ->
        Alcotest.failf "%s does not decode: %s" file
          (String.concat "; " problems)
      | Some _, problems ->
        Alcotest.failf "%s audits with findings: %s" file
          (String.concat "; " problems));
      match List.find (fun (A.Any k) -> k.A.name = name) kinds with
      | A.Any k -> (
        match A.of_string k text with
        | Error e -> Alcotest.failf "%s: %s" file e
        | Ok a ->
          Alcotest.(check (list string)) (file ^ " audit") [] (k.A.audit a);
          Alcotest.(check string)
            (file ^ " re-encodes canonically")
            (expected_reencoding file text)
            (k.A.encode a)))
    committed

let test_load_and_save () =
  let dir = Filename.temp_file "artifact" "" in
  Sys.remove dir;
  let svc = Filename.concat "../bench" "BENCH_SERVICE_0.json" in
  (match A.load Engine.Sweep.kind svc with
  | Ok _ -> Alcotest.fail "a bench-service file loaded as bench-large"
  | Error e ->
    Alcotest.(check bool) "wrong kind named" true
      (contains ~sub:"bench-service" e && contains ~sub:"bench-large" e));
  (match A.load Service_bench.kind (Filename.concat dir "missing.json") with
  | Ok _ -> Alcotest.fail "a missing file loaded"
  | Error _ -> ());
  match A.load Service_bench.kind svc with
  | Error e -> Alcotest.fail e
  | Ok a ->
    let p0 = A.save Service_bench.kind ~dir a in
    let p1 = A.save Service_bench.kind ~dir a in
    Alcotest.(check (list string))
      "one numbering per prefix"
      [ "BENCH_SERVICE_0.json"; "BENCH_SERVICE_1.json" ]
      (List.map Filename.basename [ p0; p1 ]);
    Alcotest.(check bool) "saved bytes load back" true
      (A.load Service_bench.kind p1 = Ok a);
    List.iter Sys.remove [ p0; p1 ];
    Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Recovery soak gates *)

let recovery =
  {
    Recovery_bench.cycles = 4;
    rate = 300.;
    duration_s = 16.;
    seed = 1;
    shards = 2;
    capacity = 1024;
    lease_ttl_s = 2.;
    wire_faults = true;
    wall_s = 16.2;
    offered = 4800;
    acquired = 4700;
    acquire_failures = 0;
    released = 4650;
    errors = 0;
    timeouts = 0;
    violations = 0;
    reconnects = 9;
    dropped = 20;
    abandoned = 18;
    throughput = 580.;
    duplicate_grants = 0;
    leaked_after_expiry = 0;
    recovery_p50_ms = 15.;
    recovery_p99_ms = 30.;
    recovery_max_ms = 31.;
    journal_records = 9000;
    journal_torn_tails = 1;
    journal_damaged = 0;
    daemon_exit = 0;
  }

(* [findings] holds exactly one message and it mentions [sub]. *)
let one label ~sub findings =
  match findings with
  | [ f ] when contains ~sub f -> ()
  | _ ->
    Alcotest.failf "%s: want one finding about %S, got [%s]" label sub
      (String.concat "; " findings)

let test_recovery_gates () =
  let k = Recovery_bench.kind in
  let audit = k.A.audit and regress = k.A.regress ~threshold:0.5 in
  Alcotest.(check (list string)) "clean record" []
    (A.check k ~threshold:0.5 ~baseline:recovery ~current:recovery);
  let r = recovery in
  one "duplicate grant" ~sub:"duplicate grant"
    (audit { r with duplicate_grants = 1 });
  one "leak unknown" ~sub:"unknown" (audit { r with leaked_after_expiry = -1 });
  one "leak after expiry" ~sub:"still taken"
    (audit { r with leaked_after_expiry = 2 });
  one "kills missed the load path" ~sub:"reconnect"
    (audit { r with reconnects = r.cycles - 1 });
  one "violation" ~sub:"uniqueness" (audit { r with violations = 1 });
  one "error" ~sub:"protocol" (audit { r with errors = 1 });
  one "timeout" ~sub:"unanswered" (audit { r with timeouts = 1 });
  one "journal damage" ~sub:"damaged" (audit { r with journal_damaged = 1 });
  one "drain exit" ~sub:"exited" (audit { r with daemon_exit = 1 });
  one "no acquires" ~sub:"no successful" (audit { r with acquired = 0 });
  Alcotest.(check (list string)) "recovery p99 under the 1 s floor passes" []
    (regress ~baseline:r ~current:{ r with recovery_p99_ms = 900. });
  one "recovery p99 past the band" ~sub:"recovery p99"
    (regress
       ~baseline:{ r with recovery_p99_ms = 1000. }
       ~current:{ r with recovery_p99_ms = 1600. })

(* ------------------------------------------------------------------ *)
(* Overload soak gates *)

let overload =
  {
    Overload_bench.shards = 2;
    capacity = 4096;
    conns = 4;
    clients = 64;
    calibrate_rate = 80000.;
    capacity_ops = 20000.;
    overdrive = 3.;
    rate = 60000.;
    duration_s = 6.;
    seed = 1;
    max_queue = 128;
    deadline_ms = 250;
    wall_s = 6.3;
    offered = 360000;
    acquired = 180000;
    shed = 9000;
    expired = 150000;
    acquire_failures = 0;
    released = 180000;
    errors = 0;
    timeouts = 0;
    violations = 0;
    leaked = 0;
    goodput = 29000.;
    goodput_daemon = 30000.;
    lat_p50 = 300_000_000;
    lat_p99 = 1_000_000_000;
    lat_max = 1_100_000_000;
    rss_start_kb = 30000;
    rss_end_kb = 31000;
    queue_peak = 128;
    queue_bound = 128;
    level = "degraded";
    drain_complete = true;
  }

let test_overload_gates () =
  let k = Overload_bench.kind in
  let audit = k.A.audit and regress = k.A.regress ~threshold:0.25 in
  let o = overload in
  Alcotest.(check (list string)) "clean record" []
    (A.check k ~threshold:0.25 ~baseline:o ~current:o);
  one "queue past its bound" ~sub:"queue peak"
    (audit { o with queue_peak = o.queue_bound + 1 });
  one "goodput below 0.8x capacity" ~sub:"collapsed"
    (audit { o with goodput_daemon = 15000. });
  (* allowance: max(start + start/2, start + 32 MiB) = 62768 kB *)
  Alcotest.(check (list string)) "RSS inside the allowance" []
    (audit { o with rss_end_kb = 62768 });
  one "RSS past the allowance" ~sub:"RSS" (audit { o with rss_end_kb = 62769 });
  one "cut-short drain" ~sub:"cut short" (audit { o with drain_complete = false });
  one "timeout" ~sub:"unanswered" (audit { o with timeouts = 1 });
  one "violation" ~sub:"uniqueness" (audit { o with violations = 1 });
  one "leak unknown" ~sub:"unknown" (audit { o with leaked = -1 });
  one "leak" ~sub:"leaked" (audit { o with leaked = 1 });
  one "nothing shed" ~sub:"nothing shed"
    (audit { o with shed = 0; expired = 0 });
  (* 16500/s keeps the plateau (>= 16000) but falls under the baseline's
     (1 - 0.25) x 30000 floor. *)
  let slower = { o with goodput_daemon = 16500. } in
  Alcotest.(check (list string)) "plateau holds" [] (audit slower);
  one "goodput below the baseline floor" ~sub:"goodput fell"
    (regress ~baseline:o ~current:slower);
  one "accepted p99 past the band" ~sub:"accepted p99"
    (regress ~baseline:o ~current:{ o with lat_p99 = 1_300_000_000 });
  Alcotest.(check (list string)) "p99 under the 500 ms floor passes" []
    (regress
       ~baseline:{ o with lat_p99 = 100_000_000 }
       ~current:{ o with lat_p99 = 450_000_000 })

(* ------------------------------------------------------------------ *)
(* Doctor dispatch *)

let with_dir f =
  let dir = Filename.temp_file "doctor" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_doctor_dispatch () =
  let service = read "../bench/BENCH_SERVICE_0.json" in
  let violating =
    [
      ( "BENCH_SERVICE_5.json",
        Service_bench.kind.A.encode
          (match A.of_string Service_bench.kind service with
          | Ok a -> { a with Service_bench.violations = 1 }
          | Error e -> Alcotest.fail e) );
      ( "BENCH_SERVICE_6.json",
        Recovery_bench.kind.A.encode { recovery with violations = 1 } );
      ( "BENCH_SERVICE_7.json",
        Overload_bench.kind.A.encode { overload with violations = 1 } );
    ]
  in
  let files =
    [
      ("BENCH_0.json", {|{"kind":"bench-mystery","schema":1}|});
      ("BENCH_3.json", service);
      ( "BENCH_SERVICE_4.json",
        String.sub service 0 (String.length service / 2) );
    ]
    @ violating
    @ [ ("BENCH_SERVICE_8.json", service) ]
  in
  with_dir (fun dir ->
      List.iter
        (fun (file, text) ->
          Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
              output_string oc text))
        files;
      Alcotest.(check (list string))
        "numbered files, and only those" (List.map fst files)
        (List.filter (A.numbered kinds)
           ("BENCH_x.json" :: "BENCH_SERVICE_.json" :: "notes.json"
           :: List.map fst files));
      let problems file = snd (A.inspect kinds (Filename.concat dir file)) in
      one "unknown kind" ~sub:"bench-mystery" (problems "BENCH_0.json");
      one "bench-service under BENCH_<k>" ~sub:"BENCH_SERVICE_<k>"
        (problems "BENCH_3.json");
      Alcotest.(check bool) "truncated file" true
        (problems "BENCH_SERVICE_4.json" <> []);
      List.iter
        (fun (file, _) -> one file ~sub:"violation" (problems file))
        violating;
      Alcotest.(check (list string))
        "the same bench-service bytes in their own numbering are clean" []
        (problems "BENCH_SERVICE_8.json"))

let suite =
  [
    ( "artifact.committed",
      [
        Alcotest.test_case "bench/*.json decode, audit, re-encode" `Quick
          test_committed_artifacts;
        Alcotest.test_case "load errors and shared numbering" `Quick
          test_load_and_save;
      ] );
    ( "artifact.gates",
      [
        Alcotest.test_case "recovery audit and regress" `Quick
          test_recovery_gates;
        Alcotest.test_case "overload audit and regress" `Quick
          test_overload_gates;
      ] );
    ( "artifact.doctor",
      [
        Alcotest.test_case "dispatch on kind through Artifact.any" `Quick
          test_doctor_dispatch;
      ] );
  ]
