(* Overload survivability: wire compatibility for the deadline field
   and the busy response, the overload state machine's hysteresis (no
   healthy<->shedding flapping), the retry-after hint, and end-to-end
   admission control, deadline shedding and slow-client disconnection
   against a real serving loop. *)

open Service
open Server_helpers

(* ------------------------------------------------------------------ *)
(* Wire: the 13-byte pre-deadline acquire still decodes, the busy
   response is distinguishable from an error in both modes *)

let u32 v =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (v land 0xff));
  Bytes.to_string b

let decode_req mode s =
  Wire.decode_request mode (Bytes.of_string s) ~pos:0 ~len:(String.length s)

let decode_resp mode s =
  Wire.decode_response mode (Bytes.of_string s) ~pos:0 ~len:(String.length s)

let test_legacy_acquire_decodes () =
  (* A pre-overload client's acquire: 13-byte payload, no deadline
     field.  It must decode as deadline_ms = 0 (no deadline), not be
     rejected — old clients keep working against a new daemon. *)
  let frame = u32 13 ^ "\x01" ^ u32 9 ^ u32 4 ^ u32 7 in
  (match decode_req Wire.Binary frame with
  | Wire.Frame (Wire.Acquire { id; client; token; deadline_ms }, consumed) ->
    Alcotest.(check int) "id" 9 id;
    Alcotest.(check int) "client" 4 client;
    Alcotest.(check int) "token" 7 token;
    Alcotest.(check int) "absent deadline decodes as none" 0 deadline_ms;
    Alcotest.(check int) "whole frame consumed" 17 consumed
  | _ -> Alcotest.fail "legacy 13-byte acquire did not decode");
  (* A deadline-stamped acquire encodes as the 17-byte form. *)
  let b = Buffer.create 32 in
  Wire.encode_request Wire.Binary b
    (Wire.Acquire { id = 9; client = 4; token = 7; deadline_ms = 250 });
  Alcotest.(check int) "stamped acquire is 4+17 bytes" 21 (Buffer.length b);
  (* A JSON acquire without the field is likewise deadline-free. *)
  match decode_req Wire.Json "{\"id\":1,\"op\":\"acquire\",\"client\":2}\n" with
  | Wire.Frame (Wire.Acquire { deadline_ms; _ }, _) ->
    Alcotest.(check int) "json default deadline" 0 deadline_ms
  | _ -> Alcotest.fail "json acquire without deadline_ms did not decode"

let test_busy_vs_error_decode () =
  (* In JSON both arrive as ok=false; the retry_after_ms field is the
     discriminator, not the code. *)
  (match
     decode_resp Wire.Json
       "{\"id\":1,\"op\":\"acquire\",\"ok\":false,\"code\":6,\
        \"retry_after_ms\":40}\n"
   with
  | Wire.Frame (Wire.Busy { id; op; retry_after_ms }, _) ->
    Alcotest.(check int) "id" 1 id;
    Alcotest.(check bool) "op" true (op = Wire.Op_acquire);
    Alcotest.(check int) "hint" 40 retry_after_ms
  | _ -> Alcotest.fail "busy JSON did not decode as Busy");
  (match
     decode_resp Wire.Json
       "{\"id\":1,\"op\":\"acquire\",\"ok\":false,\"code\":6,\
        \"error\":\"busy\"}\n"
   with
  | Wire.Frame (Wire.Error { code; _ }, _) ->
    Alcotest.(check int) "no hint field decodes as Error" Wire.err_busy code
  | _ -> Alcotest.fail "hint-less refusal did not decode as Error");
  (* Binary busy: status byte 2, fixed 10-byte payload. *)
  let b = Buffer.create 32 in
  Wire.encode_response Wire.Binary b
    (Wire.Busy { id = 3; op = Wire.Op_acquire; retry_after_ms = 125 });
  match decode_resp Wire.Binary (Buffer.contents b) with
  | Wire.Frame (Wire.Busy { id = 3; retry_after_ms = 125; _ }, _) -> ()
  | _ -> Alcotest.fail "binary busy did not round-trip"

(* ------------------------------------------------------------------ *)
(* Overload state machine: synthetic clock, deterministic *)

let mk () = Overload.create ~queue_bound:100 ()
(* defaults: queue_hi 75, queue_lo 25, dwell 1 s *)

let lvl = Alcotest.testable (Fmt.of_to_string Overload.level_string) ( = )

let test_overload_escalation () =
  let t = mk () in
  Alcotest.check lvl "starts healthy" Overload.Healthy (Overload.level t);
  Alcotest.check lvl "calm stays healthy" Overload.Healthy
    (Overload.observe t ~now:0. ~queue_depth:10);
  (* The first hot observation reacts immediately... *)
  Alcotest.check lvl "first hot observation degrades" Overload.Degraded
    (Overload.observe t ~now:0. ~queue_depth:80);
  (* ...but shedding needs the pressure to last a full dwell. *)
  Alcotest.check lvl "hot but dwell unmet" Overload.Degraded
    (Overload.observe t ~now:0.5 ~queue_depth:80);
  Alcotest.check lvl "sustained hot sheds" Overload.Shedding
    (Overload.observe t ~now:1.1 ~queue_depth:80);
  Alcotest.(check int) "two transitions" 2 (Overload.transitions t)

let test_overload_step_down_per_dwell () =
  let t = mk () in
  ignore (Overload.observe t ~now:0. ~queue_depth:80);
  ignore (Overload.observe t ~now:1.1 ~queue_depth:80);
  Alcotest.check lvl "shedding" Overload.Shedding (Overload.level t);
  (* Calm starts the down-clock; each step costs a full dwell. *)
  Alcotest.check lvl "calm but dwell unmet" Overload.Shedding
    (Overload.observe t ~now:1.3 ~queue_depth:10);
  Alcotest.check lvl "still unmet" Overload.Shedding
    (Overload.observe t ~now:2.0 ~queue_depth:10);
  Alcotest.check lvl "one dwell of calm steps down once" Overload.Degraded
    (Overload.observe t ~now:2.4 ~queue_depth:10);
  Alcotest.check lvl "next step needs its own dwell" Overload.Degraded
    (Overload.observe t ~now:3.0 ~queue_depth:10);
  Alcotest.check lvl "second dwell recovers" Overload.Healthy
    (Overload.observe t ~now:3.5 ~queue_depth:10)

let test_overload_band_freezes () =
  let t = mk () in
  ignore (Overload.observe t ~now:0. ~queue_depth:80);
  (* Between the thresholds neither timer runs: sitting in the band
     forever neither escalates nor recovers. *)
  for i = 1 to 100 do
    Alcotest.check lvl "band freezes the level" Overload.Degraded
      (Overload.observe t ~now:(float_of_int i) ~queue_depth:50)
  done;
  (* And the dwell clocks restarted: a hot sample now must still wait
     a full dwell before shedding. *)
  Alcotest.check lvl "hot after band does not shed yet" Overload.Degraded
    (Overload.observe t ~now:101. ~queue_depth:80)

let test_overload_no_flapping () =
  let t = mk () in
  (* A load flapping across both thresholds every 100 ms: the machine
     must settle in Degraded — never reach Shedding (no dwell of
     continuous heat) and never bounce back to Healthy (no dwell of
     continuous calm).  healthy<->shedding adjacency is impossible. *)
  for i = 0 to 199 do
    let depth = if i mod 2 = 0 then 80 else 10 in
    ignore (Overload.observe t ~now:(0.1 *. float_of_int i) ~queue_depth:depth)
  done;
  Alcotest.check lvl "flapping load settles in degraded" Overload.Degraded
    (Overload.level t);
  Alcotest.(check int) "one transition total" 1 (Overload.transitions t)

let test_overload_latency_pressure () =
  let t = mk () in
  (* Queue shallow but admission latency high: still overload. *)
  Overload.note_latency t 500.;
  Alcotest.check lvl "latency alone degrades" Overload.Degraded
    (Overload.observe t ~now:0. ~queue_depth:0);
  (* The EMA must decay before the machine can see calm again. *)
  for _ = 1 to 50 do
    Overload.note_latency t 1.
  done;
  Alcotest.check lvl "decayed latency recovers after a dwell" Overload.Degraded
    (Overload.observe t ~now:1.0 ~queue_depth:0);
  Alcotest.check lvl "..." Overload.Healthy
    (Overload.observe t ~now:2.1 ~queue_depth:0)

let test_overload_retry_hint () =
  let t = mk () in
  Alcotest.(check int) "floor at zero depth" 5
    (Overload.retry_after_ms t ~queue_depth:0);
  Overload.note_latency t 10.;
  let shallow = Overload.retry_after_ms t ~queue_depth:5 in
  let deep = Overload.retry_after_ms t ~queue_depth:50 in
  Alcotest.(check bool) "hint grows with backlog" true (deep > shallow);
  Alcotest.(check int) "capped" 2000
    (Overload.retry_after_ms t ~queue_depth:1_000_000);
  Alcotest.check_raises "inverted bands rejected"
    (Invalid_argument "Overload.create: queue_lo > queue_hi") (fun () ->
      ignore
        (Overload.create
           ~config:
             {
               (Overload.default_config ~queue_bound:8) with
               queue_lo = 9;
               queue_hi = 3;
             }
           ~queue_bound:8 ()))

let test_level_string_roundtrip () =
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Overload.level_string l) true
        (Overload.level_of_string (Overload.level_string l) = Some l))
    [ Overload.Healthy; Overload.Degraded; Overload.Shedding ];
  Alcotest.(check bool) "unknown is None" true
    (Overload.level_of_string "panicking" = None)

(* ------------------------------------------------------------------ *)
(* End-to-end *)

(* Post [n] pipelined acquires on one connection and collect every
   response, sorting them into grants / busy / expired / capacity /
   other. *)
let post_and_collect c ~n ~client ~deadline_ms =
  let acquired = ref []
  and busy = ref 0
  and expired = ref 0
  and cap = ref 0
  and other = ref 0 in
  for _ = 1 to n do
    let id = Client.fresh_id c in
    Client.post c (Wire.Acquire { id; client; token = 0; deadline_ms })
  done;
  (match Client.flush c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flush: %s" e);
  let got = ref 0 in
  while !got < n do
    match Client.recv c ~timeout:30. with
    | Ok (Some (Wire.Acquired { name; _ })) ->
      incr got;
      acquired := name :: !acquired
    | Ok (Some (Wire.Busy { retry_after_ms; _ })) ->
      incr got;
      if retry_after_ms <= 0 then
        Alcotest.fail "busy response carries no retry hint";
      incr busy
    | Ok (Some (Wire.Error { code; _ })) when code = Wire.err_expired ->
      incr got;
      incr expired
    | Ok (Some (Wire.Error { code; _ })) when code = Wire.err_capacity ->
      incr got;
      incr cap
    | Ok (Some _) ->
      incr got;
      incr other
    | Ok None -> Alcotest.failf "timed out with %d/%d responses" !got n
    | Error e -> Alcotest.failf "recv: %s" e
  done;
  (!acquired, !busy, !expired, !cap, !other)

let test_e2e_busy_shed () =
  let path = fresh_socket_path () in
  (* One shard with a one-deep admission queue: a pipelined burst must
     see most of itself refused as busy, never queued without bound. *)
  let s =
    start_server
      {
        (Server.default_config ~socket_path:path) with
        shards = 1;
        capacity = 512;
        max_queue = 1;
      }
  in
  Fun.protect
    ~finally:(fun () -> ignore (stop_server s))
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      let acquired, busy, expired, cap, other =
        post_and_collect c ~n:400 ~client:1 ~deadline_ms:0
      in
      Alcotest.(check int) "no expired without deadlines" 0 expired;
      Alcotest.(check int) "capacity never reached" 0 cap;
      Alcotest.(check int) "no other failures" 0 other;
      Alcotest.(check bool) "some requests served" true (acquired <> []);
      Alcotest.(check bool) "load was shed as busy" true (busy > 0);
      Alcotest.(check int) "accounting closes" 400
        (List.length acquired + busy);
      Alcotest.(check bool) "daemon counted its sheds" true
        (stat_int c "shed_busy" >= busy);
      (* Shedding refused admission; it must not have leaked slots. *)
      List.iter
        (fun name -> getf "release" (Client.release c ~client:1 ~name))
        acquired;
      Alcotest.(check int) "all granted slots returned" 0 (stat_int c "taken");
      Client.close c)

let test_e2e_deadline_expiry () =
  let path = fresh_socket_path () in
  (* Fill one shard's whole namespace, so every further acquire makes
     the worker walk a full — and at this size, slow (~100 us) — probe
     schedule before failing.  Admission then outruns service by two
     orders of magnitude and a millisecond-budget burst must see its
     queue wait blow through the deadline: the tail has to come back
     err_expired, shed before touching the allocator, never served
     late.  The overload machine is given an unreachable dwell so this
     test exercises deadline shedding in isolation (no Busy mixed in
     by the fill phase). *)
  let s =
    start_server
      {
        (Server.default_config ~socket_path:path) with
        shards = 1;
        capacity = 4096;
        max_queue = 16384;
        overload =
          Some
            {
              (Overload.default_config ~queue_bound:16384) with
              dwell_s = 3600.;
            };
      }
  in
  Fun.protect
    ~finally:(fun () -> ignore (stop_server s))
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      (* Fill in pipelined batches (each stays well under the
         outbound-buffer bound) until a batch comes back short. *)
      let held = ref [] in
      let full = ref false in
      while not !full do
        let acquired, busy, expired, _cap, other =
          post_and_collect c ~n:1024 ~client:7 ~deadline_ms:0
        in
        Alcotest.(check int) "fill: nothing busy" 0 busy;
        Alcotest.(check int) "fill: nothing expired" 0 expired;
        Alcotest.(check int) "fill: no other failures" 0 other;
        held := acquired @ !held;
        if List.length acquired < 1024 then full := true
      done;
      (* Hand one name back: the burst's head can be served in time,
         everything behind it contends with a saturated allocator. *)
      (match !held with
      | n0 :: rest ->
        getf "release" (Client.release c ~client:7 ~name:n0);
        held := rest
      | [] -> Alcotest.fail "fill acquired nothing");
      let acquired, busy, expired, cap, other =
        post_and_collect c ~n:2000 ~client:7 ~deadline_ms:2
      in
      Alcotest.(check int) "no other failures" 0 other;
      Alcotest.(check int) "no busy below the admission bound" 0 busy;
      Alcotest.(check bool) "the tail expired instead of being served late"
        true (expired > 0);
      Alcotest.(check bool) "at most the one free name was granted" true
        (List.length acquired <= 1);
      Alcotest.(check int) "accounting closes" 2000
        (List.length acquired + cap + expired);
      Alcotest.(check bool) "daemon counted expiries" true
        (stat_int c "shed_expired" >= expired);
      (* Expired work never touched the allocator: hand every hold
         back and the books must balance exactly. *)
      List.iter
        (fun name -> getf "release" (Client.release c ~client:7 ~name))
        (acquired @ !held);
      Alcotest.(check int) "expired requests left no slots behind" 0
        (stat_int c "taken");
      Client.close c)

let test_e2e_slow_client_disconnect () =
  let path = fresh_socket_path () in
  (* A tiny outbound bound and a short stall deadline: a client that
     stops reading must be paused, then disconnected, and its held
     names auto-released by the disconnect drain. *)
  let s =
    start_server
      {
        (Server.default_config ~socket_path:path) with
        shards = 1;
        max_out_bytes = 4096;
        stall_s = 0.3;
      }
  in
  Fun.protect
    ~finally:(fun () -> ignore (stop_server s))
    (fun () ->
      let slow = get "connect" (Client.connect ~path ()) in
      ignore (getf "acquire" (Client.acquire slow ~client:1));
      (* Ask for far more reply bytes than bound + socket buffers hold,
         and never read any of it.  post flushes opportunistically and
         never blocks, so the generator side cannot deadlock. *)
      for _ = 1 to 5000 do
        Client.post slow (Wire.Stats { id = Client.fresh_id slow })
      done;
      let watcher = get "connect" (Client.connect ~path ()) in
      let deadline = Unix.gettimeofday () +. 10. in
      let rec wait () =
        if stat_int watcher "stalled_conns" >= 1 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "stalled connection was never disconnected"
        else begin
          ignore (Unix.select [] [] [] 0.05);
          wait ()
        end
      in
      wait ();
      (* The disconnect drain returns the dead client's slot. *)
      let rec wait_clean () =
        if stat_int watcher "taken" = 0 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.failf "stalled client's slot never reclaimed (%d taken)"
            (stat_int watcher "taken")
        else begin
          ignore (Unix.select [] [] [] 0.05);
          wait_clean ()
        end
      in
      wait_clean ();
      (* The healthy client was never collateral damage. *)
      ignore (getf "stats" (Client.stats watcher));
      Client.close watcher;
      Client.close slow)

let test_e2e_stats_overload_snapshot () =
  let path = fresh_socket_path () in
  let s = start_server (Server.default_config ~socket_path:path) in
  Fun.protect
    ~finally:(fun () -> ignore (stop_server s))
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      let stats = Jsonu.obj (getf "stats" (Client.stats c)) in
      let ov =
        match List.assoc_opt "overload" stats with
        | Some o -> Jsonu.obj o
        | None -> Alcotest.fail "stats reply carries no overload object"
      in
      Alcotest.(check string) "idle daemon is healthy" "healthy"
        (Jsonu.str ov "level");
      Alcotest.(check int) "bound surfaced" 1024 (Jsonu.int_ ov "queue_bound");
      Alcotest.(check bool) "hint present" true
        (Jsonu.int_ ov "retry_after_ms" >= 1);
      Client.close c)

(* Durable client: a busy refusal is retried on the same link after the
   hint, and the logical acquire still lands exactly once. *)
let test_e2e_durable_busy_retry () =
  let path = fresh_socket_path () in
  let s =
    start_server
      {
        (Server.default_config ~socket_path:path) with
        shards = 1;
        capacity = 512;
        max_queue = 1;
      }
  in
  Fun.protect
    ~finally:(fun () -> ignore (stop_server s))
    (fun () ->
      (* Fill the one-deep queue from a firehose connection so the
         durable client's first attempts race real congestion. *)
      let hose = get "connect" (Client.connect ~path ()) in
      for _ = 1 to 200 do
        Client.post hose
          (Wire.Acquire
             { id = Client.fresh_id hose; client = 9; token = 0; deadline_ms = 0 })
      done;
      let d = Client.Durable.create ~path ~seed:42 () in
      let name = getf "durable acquire" (Client.Durable.acquire d ~client:1) in
      getf "durable release" (Client.Durable.release d ~client:1 ~name);
      Client.Durable.close d;
      Client.close hose)

(* ------------------------------------------------------------------ *)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "overload.wire",
      [
        tc "legacy acquire compatibility" `Quick test_legacy_acquire_decodes;
        tc "busy vs error decode" `Quick test_busy_vs_error_decode;
      ] );
    ( "overload.machine",
      [
        tc "escalation with dwell" `Quick test_overload_escalation;
        tc "step down per dwell" `Quick test_overload_step_down_per_dwell;
        tc "hysteresis band freezes" `Quick test_overload_band_freezes;
        tc "no flapping" `Quick test_overload_no_flapping;
        tc "latency pressure" `Quick test_overload_latency_pressure;
        tc "retry hint" `Quick test_overload_retry_hint;
        tc "level strings" `Quick test_level_string_roundtrip;
      ] );
    ( "overload.e2e",
      [
        tc "bounded queue sheds busy" `Quick test_e2e_busy_shed;
        tc "expired deadlines are shed" `Quick test_e2e_deadline_expiry;
        tc "slow client disconnected" `Quick test_e2e_slow_client_disconnect;
        tc "stats overload snapshot" `Quick test_e2e_stats_overload_snapshot;
        tc "durable client rides out busy" `Quick test_e2e_durable_busy_retry;
      ] );
  ]
