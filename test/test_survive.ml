(* Service survivability: the lease table's epoch machinery (including
   the QCheck TTL-boundary race property), the crash journal (codec
   round-trip, torn tails, CRC damage, replay, compaction, an Io_fault
   kill-point sweep), and end-to-end daemon behavior — lease expiry,
   renew heartbeats, idempotent-acquire dedup, journal write-ahead
   rollback, crash recovery, and the durable client's reconnect. *)

open Service
open Server_helpers

(* ------------------------------------------------------------------ *)
(* Lease: unit coverage of the epoch tie-breaker *)

let test_lease_grant_release () =
  let t = Lease.create ~ttl_s:1.0 () in
  let e = Lease.grant t ~now:0. ~name:5 ~holder:(Some 1) ~token:7 in
  Alcotest.(check bool) "epoch positive" true (e > 0);
  Alcotest.(check (option int)) "epoch_of" (Some e) (Lease.epoch_of t ~name:5);
  Alcotest.(check int) "one live lease" 1 (Lease.held t);
  (match Lease.release t ~name:5 ~epoch:e with
  | `Released -> ()
  | _ -> Alcotest.fail "matching epoch must release");
  (match Lease.release t ~name:5 ~epoch:e with
  | `Unknown -> ()
  | _ -> Alcotest.fail "released name must be Unknown");
  Alcotest.(check int) "empty" 0 (Lease.held t)

let test_lease_expiry_and_monotonicity () =
  let t = Lease.create ~ttl_s:1.0 () in
  let e1 = Lease.grant t ~now:0. ~name:1 ~holder:(Some 9) ~token:3 in
  Alcotest.(check (list (triple int int (option int))))
    "nothing due before the TTL" []
    (List.map
       (fun (n, e, h, _) -> (n, e, h))
       (Lease.expire_due t ~now:0.5));
  (match Lease.expire_due t ~now:1.5 with
  | [ (1, e, Some 9, 3) ] when e = e1 -> ()
  | other ->
    Alcotest.failf "expected the one expired lease, got %d entries"
      (List.length other));
  let e2 = Lease.grant t ~now:2. ~name:1 ~holder:(Some 9) ~token:4 in
  Alcotest.(check bool) "epochs strictly increase across reissue" true (e2 > e1)

let test_lease_renew_extends () =
  let t = Lease.create ~ttl_s:1.0 () in
  ignore (Lease.grant t ~now:0. ~name:2 ~holder:(Some 4) ~token:0);
  Alcotest.(check int) "renew touches the holder's lease" 1
    (Lease.renew t ~now:0.9 ~holder:4);
  Alcotest.(check (list int)) "renewed lease outlives the old deadline" []
    (List.map (fun (n, _, _, _) -> n) (Lease.expire_due t ~now:1.5));
  (* A lease past its TTL but not yet swept is still renewable: it is
     the sweep, not the clock, that kills it. *)
  Alcotest.(check int) "late renew still lands" 1
    (Lease.renew t ~now:3.0 ~holder:4);
  Alcotest.(check int) "lease survives" 1 (Lease.held t)

let test_lease_token_binding () =
  let t = Lease.create ~ttl_s:1.0 () in
  let e = Lease.grant t ~now:0. ~name:8 ~holder:(Some 1) ~token:42 in
  Alcotest.(check (option (pair int int)))
    "token resolves to its lease" (Some (8, e))
    (Lease.find_token t ~token:42);
  Alcotest.(check bool) "rebind with the live epoch succeeds" true
    (Lease.rebind t ~now:0.5 ~name:8 ~epoch:e ~holder:2);
  (match Lease.holder_of t ~name:8 with
  | Some (Some 2) -> ()
  | _ -> Alcotest.fail "rebind must move the holder");
  Alcotest.(check bool) "rebind with a dead epoch fails" false
    (Lease.rebind t ~now:0.5 ~name:8 ~epoch:(e + 1) ~holder:3);
  ignore (Lease.expire_due t ~now:10.);
  Alcotest.(check (option (pair int int)))
    "token binding dies with the lease" None
    (Lease.find_token t ~token:42)

let test_lease_restore () =
  let t = Lease.create ~ttl_s:1.0 () in
  Lease.restore t ~now:0. ~name:3 ~epoch:10 ~token:6;
  Alcotest.(check (option int)) "original epoch kept" (Some 10)
    (Lease.epoch_of t ~name:3);
  (match Lease.holder_of t ~name:3 with
  | Some None -> ()
  | _ -> Alcotest.fail "restored lease must be an orphan");
  Alcotest.(check (option (pair int int)))
    "restored token still matches" (Some (3, 10))
    (Lease.find_token t ~token:6);
  let e = Lease.grant t ~now:0. ~name:4 ~holder:None ~token:0 in
  Alcotest.(check bool) "epoch counter bumped past the restore" true (e > 10)

(* The renew-vs-expiry race at the TTL boundary, driven deterministically:
   once a lease expires and its name is reissued, the stale holder's
   epoch can neither release nor rebind (dedup-match) the new lease, and
   its token no longer resolves. *)
let qcheck_lease_ttl_boundary =
  QCheck.Test.make ~name:"stale epoch never frees or steals a reissued name"
    ~count:500
    QCheck.(
      quad (float_range 0.01 10.) (float_range 0. 1000.) (int_range 0 4096)
        (int_range 1 1_000_000))
    (fun (ttl, now0, name, token) ->
      let t = Lease.create ~ttl_s:ttl () in
      let ttl = Lease.ttl_s t in
      let e1 = Lease.grant t ~now:now0 ~name ~holder:(Some 1) ~token in
      (* Probe strictly inside, then strictly past, the TTL window. *)
      let inside = now0 +. (ttl /. 2.) in
      let past = now0 +. (ttl *. 2.) +. 0.001 in
      let not_due = Lease.expire_due t ~now:inside = [] in
      let renewed = Lease.renew t ~now:inside ~holder:1 = 1 in
      let expired =
        match Lease.expire_due t ~now:(past +. ttl) with
        | [ (n, e, Some 1, tok) ] -> n = name && e = e1 && tok = token
        | _ -> false
      in
      let e2 = Lease.grant t ~now:past ~name ~holder:(Some 2) ~token:(token + 1) in
      let stale_release =
        match Lease.release t ~name ~epoch:e1 with `Stale -> true | _ -> false
      in
      let stale_rebind = not (Lease.rebind t ~now:past ~name ~epoch:e1 ~holder:1) in
      let stale_token = Lease.find_token t ~token = None in
      let live_release =
        match Lease.release t ~name ~epoch:e2 with
        | `Released -> true
        | _ -> false
      in
      not_due && renewed && expired && e2 > e1 && stale_release && stale_rebind
      && stale_token && live_release)

(* ------------------------------------------------------------------ *)
(* Journal: codec, damage tolerance, replay, compaction *)

let temp_journal () =
  let path = Filename.temp_file "journal_test" ".journal" in
  Sys.remove path;
  path

let with_journal path f =
  match Journal.open_append ~path with
  | Error e -> Alcotest.failf "open_append: %s" e
  | Ok j -> Fun.protect ~finally:(fun () -> Journal.close j) (fun () -> f j)

let sample_records =
  [
    Journal.Grant { name = 0; epoch = 1; client = 7; token = 99 };
    Journal.Grant
      {
        name = (1 lsl 32) - 1;
        epoch = 1 lsl 40;
        client = (1 lsl 32) - 1;
        token = (1 lsl 32) - 1;
      };
    Journal.Release { name = 0; epoch = 1 };
    Journal.Expire { name = (1 lsl 32) - 1; epoch = 1 lsl 40 };
  ]

let scan_ok path =
  match Journal.scan ~path with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok s -> s

let test_journal_roundtrip () =
  let path = temp_journal () in
  with_journal path (fun j -> List.iter (Journal.append j) sample_records);
  let s = scan_ok path in
  Alcotest.(check bool) "no torn tail" false s.Journal.torn_tail;
  Alcotest.(check int) "no damage" 0 s.Journal.damaged;
  Alcotest.(check bool) "records round-trip in order" true
    (s.Journal.records = sample_records);
  Sys.remove path

let truncate_file path n =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  Unix.ftruncate fd (max 0 (size - n));
  Unix.close fd

let test_journal_torn_tail () =
  let path = temp_journal () in
  with_journal path (fun j -> List.iter (Journal.append j) sample_records);
  truncate_file path 3;
  let s = scan_ok path in
  Alcotest.(check bool) "torn tail detected" true s.Journal.torn_tail;
  Alcotest.(check int) "a torn tail is not damage" 0 s.Journal.damaged;
  Alcotest.(check bool) "intact prefix recovered" true
    (s.Journal.records
    = List.filteri (fun i _ -> i < List.length sample_records - 1)
        sample_records);
  Sys.remove path

let test_journal_crc_damage () =
  let path = temp_journal () in
  with_journal path (fun j -> List.iter (Journal.append j) sample_records);
  (* Flip one payload byte inside the first record (8 bytes of framing,
     then the payload). *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd 10 Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  ignore (Unix.lseek fd 10 Unix.SEEK_SET);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let s = scan_ok path in
  Alcotest.(check bool) "damage on a complete record is reported" true
    (s.Journal.damaged > 0);
  Sys.remove path

let test_journal_replay () =
  let open Journal in
  let live =
    replay
      [
        Grant { name = 1; epoch = 1; client = 10; token = 5 };
        Grant { name = 2; epoch = 2; client = 11; token = 0 };
        Release { name = 1; epoch = 1 };
        Expire { name = 2; epoch = 2 };
        Grant { name = 1; epoch = 7; client = 12; token = 8 };
      ]
  in
  Alcotest.(check bool) "one live grant" true
    (live.grants = [ (1, (7, 12, 8)) ]);
  Alcotest.(check int) "next epoch past the max" 8 live.next_epoch;
  Alcotest.(check int) "no double grants" 0 live.double_grants;
  Alcotest.(check int) "no stale releases" 0 live.stale_releases;
  let dup =
    replay
      [
        Grant { name = 3; epoch = 1; client = 0; token = 0 };
        Grant { name = 3; epoch = 2; client = 1; token = 0 };
      ]
  in
  Alcotest.(check int) "double grant of a live name counted" 1
    dup.double_grants;
  let stale =
    replay
      [
        Grant { name = 4; epoch = 9; client = 0; token = 0 };
        Release { name = 4; epoch = 3 };
      ]
  in
  Alcotest.(check int) "stale release counted" 1 stale.stale_releases;
  Alcotest.(check bool) "stale release frees nothing" true
    (stale.grants = [ (4, (9, 0, 0)) ])

let test_journal_rewrite () =
  let path = temp_journal () in
  let grants = [ (3, (7, 1, 0)); (9, (8, 2, 55)) ] in
  (match Journal.rewrite ~path grants with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rewrite: %s" e);
  let s = scan_ok path in
  Alcotest.(check int) "compacted to the live grants" 2
    (List.length s.Journal.records);
  let live = Journal.replay s.Journal.records in
  Alcotest.(check bool) "replay of the compaction is the input" true
    (live.Journal.grants = grants);
  Sys.remove path

(* Kill-point sweep: fail every append in every way the engine's I/O
   fault shim knows, and require that the journal never shows CRC
   damage — only a clean prefix, possibly with a torn tail. *)
let test_journal_kill_point_sweep () =
  let records =
    List.init 5 (fun i ->
        Journal.Grant { name = i; epoch = i + 1; client = i; token = i })
  in
  let kinds =
    [
      Engine.Io_fault.Drop;
      Engine.Io_fault.Short 1;
      Engine.Io_fault.Short 9;
      Engine.Io_fault.Short 20;
      Engine.Io_fault.After_append;
    ]
  in
  Fun.protect ~finally:Engine.Io_fault.disarm (fun () ->
      List.iter
        (fun kind ->
          for op = 0 to List.length records - 1 do
            let path = temp_journal () in
            Engine.Io_fault.arm { Engine.Io_fault.op; kind };
            let written = ref 0 in
            (try
               with_journal path (fun j ->
                   List.iter
                     (fun r ->
                       Journal.append j r;
                       incr written)
                     records)
             with Engine.Io_fault.Injected _ -> ());
            Engine.Io_fault.disarm ();
            let s = scan_ok path in
            Alcotest.(check int) "a crashed append never leaves damage" 0
              s.Journal.damaged;
            let n = List.length s.Journal.records in
            Alcotest.(check bool) "intact records are a prefix" true
              (s.Journal.records
              = List.filteri (fun i _ -> i < n) records);
            (* Drop/Short lose the failing record (torn at worst);
               After_append persists it even though the caller saw the
               failure — exactly the case the server's grant rollback
               turns into an expiring orphan. *)
            (match kind with
            | Engine.Io_fault.After_append ->
              Alcotest.(check int) "After_append is durable" (!written + 1) n
            | _ ->
              Alcotest.(check int) "Drop/Short lose the failing record"
                !written n);
            Sys.remove path
          done)
        kinds)

(* ------------------------------------------------------------------ *)
(* End-to-end: leases, dedup, write-ahead, recovery, reconnect *)

let wait_for ?(deadline_s = 10.) what pred =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      ignore (Unix.select [] [] [] 0.03);
      go ()
    end
  in
  go ()

let test_e2e_lease_expiry () =
  let path = fresh_socket_path () in
  let s = start_server (base_cfg ~lease_ttl:0.2 path) in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server s) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      let name = getf "acquire" (Client.acquire c ~client:1) in
      Alcotest.(check int) "held" 1 (stat_int c "taken");
      (* Go silent without disconnecting: the sweep, driven by the lease
         TTL, must reclaim the slot out from under us. *)
      wait_for "the expiry sweep" (fun () -> stat_int c "taken" = 0);
      Alcotest.(check bool) "expiry counted" true
        (stat_int c "expired_leases" >= 1);
      (* Our claim is dead: releasing the reissued/reclaimed name must
         be refused, never honoured. *)
      (match Client.release c ~client:1 ~name with
      | Error (Client.Remote { code; _ }) ->
        Alcotest.(check int) "stale release refused" Wire.err_not_held code
      | Error (Client.Transport e) -> Alcotest.failf "transport: %s" e
      | Error (Client.Busy _) -> Alcotest.fail "release refused as busy"
      | Ok () -> Alcotest.fail "stale release succeeded");
      Client.close c)

let test_e2e_renew_keeps_alive () =
  let path = fresh_socket_path () in
  let s = start_server (base_cfg ~lease_ttl:0.3 path) in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server s) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      let name = getf "acquire" (Client.acquire c ~client:2) in
      (* Heartbeat through 4 TTLs: the lease must never lapse. *)
      for _ = 1 to 12 do
        Unix.sleepf 0.1;
        Alcotest.(check int) "renew extends our one lease" 1
          (getf "renew" (Client.renew c ~client:2))
      done;
      Alcotest.(check int) "still held after 4 TTLs of heartbeats" 1
        (stat_int c "taken");
      getf "release" (Client.release c ~client:2 ~name);
      Alcotest.(check int) "released" 0 (stat_int c "taken");
      Client.close c)

let test_e2e_token_dedup () =
  let path = fresh_socket_path () in
  let s = start_server (base_cfg path) in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server s) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      let n1 = getf "acquire" (Client.acquire ~token:77 c ~client:3) in
      (* A retry carrying the same token must re-deliver the original
         grant, not take a second slot. *)
      let n2 = getf "acquire" (Client.acquire ~token:77 c ~client:3) in
      Alcotest.(check int) "same name re-delivered" n1 n2;
      Alcotest.(check int) "one slot taken" 1 (stat_int c "taken");
      Alcotest.(check int) "dedup counted" 1 (stat_int c "dedup_hits");
      (* A different token is a different logical acquire. *)
      let n3 = getf "acquire" (Client.acquire ~token:78 c ~client:3) in
      Alcotest.(check bool) "fresh token, fresh name" true (n3 <> n1);
      Client.close c)

let test_e2e_journal_write_ahead () =
  let path = fresh_socket_path () in
  let journal = temp_journal () in
  let s = start_server (base_cfg ~journal path) in
  Fun.protect
    ~finally:(fun () ->
      Engine.Io_fault.disarm ();
      (try ignore (stop_server s) with _ -> ());
      try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      (* Fail the next journal append: the grant must be rolled back
         before the client ever sees it. *)
      Engine.Io_fault.arm { Engine.Io_fault.op = 0; kind = Engine.Io_fault.Drop };
      (match Client.acquire c ~client:1 with
      | Error (Client.Remote { code; _ }) ->
        Alcotest.(check int) "unjournaled grant is err_internal"
          Wire.err_internal code
      | Error (Client.Transport e) -> Alcotest.failf "transport: %s" e
      | Error (Client.Busy _) -> Alcotest.fail "acquire refused as busy"
      | Ok n -> Alcotest.failf "grant %d acknowledged without a journal" n);
      Engine.Io_fault.disarm ();
      (* The serving loop releases the cell before it sends
         err_internal, so the rollback is visible to the very next
         request: snapshot, don't poll.  A rollback sent after the reply
         fails here. *)
      Alcotest.(check int) "grant rolled back before the reply" 0
        (stat_int c "taken");
      (* With the fault gone the same client acquires normally, and the
         grant is on disk before the reply. *)
      let name = getf "acquire" (Client.acquire c ~client:1) in
      let scan =
        match Journal.scan ~path:journal with
        | Ok s -> s
        | Error e -> Alcotest.failf "scan: %s" e
      in
      let live = Journal.replay scan.Journal.records in
      Alcotest.(check bool) "the acknowledged grant is journaled" true
        (List.mem_assoc name live.Journal.grants);
      Client.close c)

(* Craft a journal holding live grants, as a SIGKILL-ed daemon leaves
   behind. *)
let craft_journal ?(epochs = [ (0, 5); (1, 7); (2, 9) ]) path =
  (match Journal.open_append ~path with
  | Error e -> Alcotest.failf "craft: %s" e
  | Ok j ->
    List.iter
      (fun (name, epoch) ->
        Journal.append j (Journal.Grant { name; epoch; client = 99; token = 0 }))
      epochs;
    Journal.close j);
  List.map fst epochs

let test_e2e_recovery () =
  let path = fresh_socket_path () in
  let journal = temp_journal () in
  let names = craft_journal journal in
  let s = start_server (base_cfg ~lease_ttl:0.6 ~journal ~recover:true path) in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (stop_server s) with _ -> ());
      try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      Alcotest.(check int) "journaled grants re-occupied"
        (List.length names) (stat_int c "recovered");
      Alcotest.(check int) "recovered slots are taken" (List.length names)
        (stat_int c "taken");
      (* While the restored leases live, no client may be granted a
         recovered name — that would be a double grant. *)
      let granted =
        List.init 30 (fun i -> getf "acquire" (Client.acquire c ~client:i))
      in
      List.iter
        (fun n ->
          if List.mem n names then
            Alcotest.failf "recovered name %d double-granted" n)
        granted;
      List.iteri
        (fun i n -> getf "release" (Client.release c ~client:i ~name:n))
        granted;
      (* Nobody renews the orphans: one TTL later the sweep frees them,
         and the namespace is whole again. *)
      wait_for "orphan leases to expire" (fun () -> stat_int c "taken" = 0);
      Client.close c;
      match stop_server s with
      | Error e -> Alcotest.failf "drain: %s" e
      | Ok r ->
        Alcotest.(check int) "report counts recovery" (List.length names)
          r.Server.recovered;
        Alcotest.(check bool) "clean exit" true (Server.report_clean r))

let test_e2e_recovery_refused () =
  let path = fresh_socket_path () in
  let journal = temp_journal () in
  ignore (craft_journal journal);
  let s = Server.spawn (base_cfg ~journal ~recover:false path) in
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      match Server.join s with
      | Ok _ -> Alcotest.fail "booted over live grants without --recover"
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error is the recovery-required refusal: %s" e)
          true
          (Server.recovery_refused e))

let test_e2e_damaged_journal_refused () =
  let path = fresh_socket_path () in
  let journal = temp_journal () in
  ignore (craft_journal journal);
  (* Corrupt a complete record: recovery must refuse even with
     --recover — this is damage, not a crash artifact. *)
  let fd = Unix.openfile journal [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd 12 Unix.SEEK_SET);
  ignore (Unix.write_substring fd "\xde" 0 1);
  Unix.close fd;
  let s = Server.spawn (base_cfg ~journal ~recover:true path) in
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      match Server.join s with
      | Ok _ -> Alcotest.fail "booted over a damaged journal"
      | Error e ->
        Alcotest.(check bool) "damage is not the recovery-required case"
          false
          (Server.recovery_refused e))

let test_e2e_recovery_compacts () =
  let path = fresh_socket_path () in
  let journal = temp_journal () in
  (* Live grants buried under released/expired history. *)
  (match Journal.open_append ~path:journal with
  | Error e -> Alcotest.failf "craft: %s" e
  | Ok j ->
    for i = 0 to 19 do
      Journal.append j
        (Journal.Grant { name = i; epoch = i + 1; client = 1; token = 0 });
      if i >= 2 then
        Journal.append j (Journal.Release { name = i; epoch = i + 1 })
    done;
    Journal.close j);
  let s = start_server (base_cfg ~lease_ttl:0.5 ~journal ~recover:true path) in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (stop_server s) with _ -> ());
      try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      Alcotest.(check int) "only the live grants recovered" 2
        (stat_int c "recovered");
      Client.close c;
      (* Boot-time compaction rewrote history down to the live set. *)
      let scan =
        match Journal.scan ~path:journal with
        | Ok sc -> sc
        | Error e -> Alcotest.failf "scan: %s" e
      in
      let grants, others =
        List.partition
          (function Journal.Grant _ -> true | _ -> false)
          scan.Journal.records
      in
      Alcotest.(check int) "compacted journal starts from two grants" 2
        (List.length grants);
      (* Anything after compaction is this boot's own activity (the
         orphans' expiry records), never stale history. *)
      List.iter
        (function
          | Journal.Expire _ | Journal.Release _ -> ()
          | Journal.Grant _ -> ())
        others)

let test_e2e_durable_reconnect () =
  let path = fresh_socket_path () in
  let s1 = start_server (base_cfg path) in
  let d = Client.Durable.create ~path ~seed:5 () in
  Fun.protect
    ~finally:(fun () -> Client.Durable.close d)
    (fun () ->
      ignore (getf "acquire" (Client.Durable.acquire d ~client:1));
      (* The daemon goes away (graceful here; the SIGKILL variant is the
         chaos soak's job) and a new one takes over the socket: the
         durable client must ride across with backoff, not fail. *)
      (match stop_server s1 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "first daemon: %s" e);
      let s2 = start_server (base_cfg path) in
      Fun.protect
        ~finally:(fun () -> try ignore (stop_server s2) with _ -> ())
        (fun () ->
          ignore (getf "acquire again" (Client.Durable.acquire d ~client:1));
          Alcotest.(check bool) "the reconnect was counted" true
            (Client.Durable.reconnects d >= 1)))

(* ------------------------------------------------------------------ *)

let suite =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  [
    ( "survive.lease",
      [
        tc "grant and release" `Quick test_lease_grant_release;
        tc "expiry and epoch monotonicity" `Quick
          test_lease_expiry_and_monotonicity;
        tc "renew extends" `Quick test_lease_renew_extends;
        tc "token binding" `Quick test_lease_token_binding;
        tc "restore" `Quick test_lease_restore;
        qc qcheck_lease_ttl_boundary;
      ] );
    ( "survive.journal",
      [
        tc "round-trip" `Quick test_journal_roundtrip;
        tc "torn tail" `Quick test_journal_torn_tail;
        tc "crc damage" `Quick test_journal_crc_damage;
        tc "replay" `Quick test_journal_replay;
        tc "rewrite compaction" `Quick test_journal_rewrite;
        tc "kill-point sweep" `Quick test_journal_kill_point_sweep;
      ] );
    ( "survive.e2e",
      [
        tc "lease expiry reclaims silent holders" `Quick test_e2e_lease_expiry;
        tc "renew keeps names alive" `Quick test_e2e_renew_keeps_alive;
        tc "idempotent acquire dedup" `Quick test_e2e_token_dedup;
        tc "journal write-ahead rollback" `Quick test_e2e_journal_write_ahead;
        tc "crash recovery re-occupies grants" `Quick test_e2e_recovery;
        tc "recovery refused without --recover" `Quick
          test_e2e_recovery_refused;
        tc "damaged journal refused" `Quick test_e2e_damaged_journal_refused;
        tc "recovery compacts the journal" `Quick test_e2e_recovery_compacts;
        tc "durable client reconnects" `Quick test_e2e_durable_reconnect;
      ] );
  ]
