(* The renaming service: wire codec (round-trip + adversarial
   truncation), session framing, the sharded allocator, the HDR latency
   histogram, the bench artifact, and end-to-end daemon behavior
   (sync ops, JSON fallback, graceful SIGTERM drain, open-loop load). *)

open Service
open Server_helpers

(* ------------------------------------------------------------------ *)
(* Codec helpers and generators *)

let encode_req mode r =
  let b = Buffer.create 64 in
  Wire.encode_request mode b r;
  Buffer.contents b

let encode_resp mode r =
  let b = Buffer.create 64 in
  Wire.encode_response mode b r;
  Buffer.contents b

let decode_req mode s =
  Wire.decode_request mode (Bytes.of_string s) ~pos:0 ~len:(String.length s)

let decode_resp mode s =
  Wire.decode_response mode (Bytes.of_string s) ~pos:0 ~len:(String.length s)

let show_req = function
  | Wire.Acquire { id; client; token; deadline_ms } ->
    Printf.sprintf "Acquire{id=%d;client=%d;token=%d;deadline_ms=%d}" id
      client token deadline_ms
  | Wire.Release { id; client; name } ->
    Printf.sprintf "Release{id=%d;client=%d;name=%d}" id client name
  | Wire.Renew { id; client } -> Printf.sprintf "Renew{id=%d;client=%d}" id client
  | Wire.Stats { id } -> Printf.sprintf "Stats{id=%d}" id
  | Wire.Shutdown { id } -> Printf.sprintf "Shutdown{id=%d}" id

let show_resp = function
  | Wire.Acquired { id; name; lease_ms } ->
    Printf.sprintf "Acquired{id=%d;name=%d;lease_ms=%d}" id name lease_ms
  | Wire.Released { id } -> Printf.sprintf "Released{id=%d}" id
  | Wire.Renewed { id; count } -> Printf.sprintf "Renewed{id=%d;count=%d}" id count
  | Wire.Stats_reply { id; stats } ->
    Printf.sprintf "Stats_reply{id=%d;stats=%s}" id (Jsonu.to_string stats)
  | Wire.Shutting_down { id } -> Printf.sprintf "Shutting_down{id=%d}" id
  | Wire.Error { id; op; code; msg } ->
    Printf.sprintf "Error{id=%d;op=%s;code=%d;msg=%S}" id (Wire.op_string op)
      code msg
  | Wire.Busy { id; op; retry_after_ms } ->
    Printf.sprintf "Busy{id=%d;op=%s;retry_after_ms=%d}" id
      (Wire.op_string op) retry_after_ms

let u32_gen = QCheck.Gen.int_range 0 ((1 lsl 32) - 1)

let req_gen =
  let open QCheck.Gen in
  oneof
    [
      map
        (fun ((id, client), (token, deadline_ms)) ->
          Wire.Acquire { id; client; token; deadline_ms })
        (pair (pair u32_gen u32_gen) (pair u32_gen u32_gen));
      map3
        (fun id client name -> Wire.Release { id; client; name })
        u32_gen u32_gen u32_gen;
      map2 (fun id client -> Wire.Renew { id; client }) u32_gen u32_gen;
      map (fun id -> Wire.Stats { id }) u32_gen;
      map (fun id -> Wire.Shutdown { id }) u32_gen;
    ]

let msg_gen =
  QCheck.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 80))

let op_gen =
  QCheck.Gen.oneofl
    [
      Wire.Op_acquire; Wire.Op_release; Wire.Op_renew; Wire.Op_stats;
      Wire.Op_shutdown;
    ]

let resp_gen =
  let open QCheck.Gen in
  oneof
    [
      map3
        (fun id name lease_ms -> Wire.Acquired { id; name; lease_ms })
        u32_gen u32_gen u32_gen;
      map (fun id -> Wire.Released { id }) u32_gen;
      map2 (fun id count -> Wire.Renewed { id; count }) u32_gen u32_gen;
      map2
        (fun id taken ->
          Wire.Stats_reply
            { id; stats = Jsonu.Obj [ ("taken", Jsonu.Int taken) ] })
        u32_gen (int_range 0 1000);
      map (fun id -> Wire.Shutting_down { id }) u32_gen;
      map (fun ((id, op), (code, msg)) -> Wire.Error { id; op; code; msg })
        (pair (pair u32_gen op_gen) (pair (int_range 0 255) msg_gen));
      map
        (fun ((id, op), retry_after_ms) ->
          Wire.Busy { id; op; retry_after_ms })
        (pair (pair u32_gen op_gen) u32_gen);
    ]

let req_arb = QCheck.make ~print:show_req req_gen
let resp_arb = QCheck.make ~print:show_resp resp_gen
let mode_arb = QCheck.make (QCheck.Gen.oneofl [ Wire.Binary; Wire.Json ])

(* ------------------------------------------------------------------ *)
(* Wire: round-trips *)

let qcheck_req_roundtrip =
  QCheck.Test.make ~name:"request round-trips in both modes" ~count:500
    (QCheck.pair mode_arb req_arb)
    (fun (mode, r) ->
      let s = encode_req mode r in
      match decode_req mode s with
      | Wire.Frame (r', consumed) -> r' = r && consumed = String.length s
      | _ -> false)

let qcheck_resp_roundtrip =
  QCheck.Test.make ~name:"response round-trips in both modes" ~count:500
    (QCheck.pair mode_arb resp_arb)
    (fun (mode, r) ->
      let s = encode_resp mode r in
      match decode_resp mode s with
      | Wire.Frame (r', consumed) -> r' = r && consumed = String.length s
      | _ -> false)

(* Every strict prefix of a valid frame must yield Need_more: a partial
   read is normal, never corruption. *)
let qcheck_req_truncation =
  QCheck.Test.make ~name:"every strict request prefix is Need_more" ~count:200
    (QCheck.pair mode_arb req_arb)
    (fun (mode, r) ->
      let s = encode_req mode r in
      let ok = ref true in
      for cut = 0 to String.length s - 1 do
        match decode_req mode (String.sub s 0 cut) with
        | Wire.Need_more -> ()
        | _ -> ok := false
      done;
      !ok)

let qcheck_resp_truncation =
  QCheck.Test.make ~name:"every strict response prefix is Need_more" ~count:200
    (QCheck.pair mode_arb resp_arb)
    (fun (mode, r) ->
      let s = encode_resp mode r in
      let ok = ref true in
      for cut = 0 to String.length s - 1 do
        match decode_resp mode (String.sub s 0 cut) with
        | Wire.Need_more -> ()
        | _ -> ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Wire: adversarial input *)

let corrupt = function Wire.Corrupt _ -> true | _ -> false

let test_oversized_binary () =
  (* A length prefix beyond max_frame must be rejected before any
     allocation, even though the payload never arrives. *)
  let b = Buffer.create 8 in
  Buffer.add_string b "\x00\x01\x00\x01";
  (* 65537 *)
  Alcotest.(check bool)
    "oversized length prefix is Corrupt" true
    (corrupt (decode_req Wire.Binary (Buffer.contents b)));
  Alcotest.(check bool)
    "oversized response prefix is Corrupt" true
    (corrupt (decode_resp Wire.Binary (Buffer.contents b)))

let test_oversized_json () =
  let line = String.make (Wire.max_frame + 10) 'x' in
  Alcotest.(check bool)
    "overlong JSON line without newline is Corrupt" true
    (corrupt (decode_req Wire.Json line))

let test_unknown_opcode () =
  let b = Buffer.create 16 in
  Buffer.add_string b "\x00\x00\x00\x05";
  Buffer.add_string b "\x09\x00\x00\x00\x01";
  Alcotest.(check bool)
    "unknown opcode is Corrupt" true
    (corrupt (decode_req Wire.Binary (Buffer.contents b)))

let test_bad_payload_length () =
  (* Valid opcode (acquire = 1) but a stats-sized payload. *)
  let b = Buffer.create 16 in
  Buffer.add_string b "\x00\x00\x00\x05";
  Buffer.add_string b "\x01\x00\x00\x00\x01";
  Alcotest.(check bool)
    "wrong payload length for opcode is Corrupt" true
    (corrupt (decode_req Wire.Binary (Buffer.contents b)));
  Alcotest.(check bool)
    "empty frame is Corrupt" true
    (corrupt (decode_req Wire.Binary "\x00\x00\x00\x00"))

let test_bad_json_line () =
  Alcotest.(check bool)
    "non-JSON line is Corrupt" true
    (corrupt (decode_req Wire.Json "not json at all\n"));
  Alcotest.(check bool)
    "JSON with unknown op is Corrupt" true
    (corrupt (decode_req Wire.Json "{\"id\":1,\"op\":\"frobnicate\"}\n"));
  Alcotest.(check bool)
    "JSON with missing field is Corrupt" true
    (corrupt (decode_req Wire.Json "{\"op\":\"acquire\"}\n"))

(* ------------------------------------------------------------------ *)
(* Session: framing over arbitrary byte chops *)

let feed_string sess s =
  Session.feed sess ~buf:(Bytes.of_string s) ~len:(String.length s)

let reqs_equal = Alcotest.(check (list string))

let test_session_byte_at_a_time mode () =
  let reqs =
    [
      Wire.Acquire { id = 1; client = 7; token = 0; deadline_ms = 0 };
      Wire.Release { id = 2; client = 7; name = 42 };
      Wire.Renew { id = 3; client = 7 };
      Wire.Stats { id = 4 };
      Wire.Shutdown { id = 5 };
    ]
  in
  let stream = String.concat "" (List.map (encode_req mode) reqs) in
  let sess = Session.create () in
  let out = ref [] in
  String.iter
    (fun c ->
      match feed_string sess (String.make 1 c) with
      | Ok rs -> out := !out @ rs
      | Error e -> Alcotest.failf "unexpected corruption: %s" e)
    stream;
  reqs_equal "all frames recovered byte-at-a-time"
    (List.map show_req reqs)
    (List.map show_req !out);
  Alcotest.(check int) "no residue buffered" 0 (Session.buffered sess)

let test_session_many_per_feed () =
  let reqs =
    List.init 50 (fun i ->
        Wire.Acquire { id = i; client = i; token = 0; deadline_ms = 0 })
  in
  let stream = String.concat "" (List.map (encode_req Wire.Binary) reqs) in
  let sess = Session.create () in
  match feed_string sess stream with
  | Error e -> Alcotest.failf "unexpected corruption: %s" e
  | Ok rs ->
    reqs_equal "one feed drains every complete frame"
      (List.map show_req reqs) (List.map show_req rs)

let test_session_mode_detection () =
  let s1 = Session.create () in
  ignore (feed_string s1 (encode_req Wire.Binary (Wire.Stats { id = 1 })));
  Alcotest.(check bool)
    "binary first byte selects Binary" true
    (Session.mode s1 = Some Wire.Binary);
  let s2 = Session.create () in
  ignore (feed_string s2 "{");
  Alcotest.(check bool)
    "'{' selects Json" true
    (Session.mode s2 = Some Wire.Json)

let test_session_corrupt_latch () =
  let sess = Session.create () in
  (match feed_string sess "\x00\x01\x00\x01" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted");
  (* Once corrupt, always corrupt — even for bytes that would parse. *)
  match feed_string sess (encode_req Wire.Binary (Wire.Stats { id = 1 })) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "session recovered from corruption"

let test_session_ledger () =
  let sess = Session.create () in
  Session.note_acquired sess 5;
  Session.note_acquired sess 9;
  Alcotest.(check bool) "holds 5" true (Session.holds sess 5);
  Alcotest.(check int) "held count" 2 (Session.held_count sess);
  Session.note_released sess 5;
  Alcotest.(check bool) "5 released" false (Session.holds sess 5);
  Alcotest.(check (list int)) "ledger content" [ 9 ] (Session.held sess)

(* ------------------------------------------------------------------ *)
(* Hdr histogram *)

let qcheck_hdr_relative_error =
  QCheck.Test.make ~name:"hdr quantile error is within 1/64" ~count:500
    QCheck.(int_range 0 (1 lsl 40))
    (fun v ->
      let h = Stats.Hdr.create () in
      Stats.Hdr.record h v;
      let q = Stats.Hdr.quantile h 1.0 in
      q >= v && float_of_int q <= (float_of_int v *. (1. +. (1. /. 64.))) +. 1.)

let qcheck_hdr_quantiles_ordered =
  QCheck.Test.make ~name:"hdr quantiles are monotone" ~count:100
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 200) (int_range 0 1_000_000)))
    (fun (_, vs) ->
      let h = Stats.Hdr.create () in
      List.iter (Stats.Hdr.record h) vs;
      let q = Stats.Hdr.quantile h in
      q 0.5 <= q 0.99 && q 0.99 <= q 0.999 && q 0.999 <= q 1.0)

let test_hdr_exact () =
  let h = Stats.Hdr.create () in
  for v = 1 to 1000 do
    Stats.Hdr.record h v
  done;
  Alcotest.(check int) "count" 1000 (Stats.Hdr.count h);
  Alcotest.(check int) "min" 1 (Stats.Hdr.min_value h);
  Alcotest.(check int) "max" 1000 (Stats.Hdr.max_value h);
  Alcotest.(check (float 0.001)) "mean" 500.5 (Stats.Hdr.mean h);
  let p50 = Stats.Hdr.quantile h 0.5 in
  if p50 < 500 || p50 > 508 then Alcotest.failf "p50 = %d" p50;
  (* Sub-64 values are exact. *)
  let h2 = Stats.Hdr.create () in
  List.iter (Stats.Hdr.record h2) [ 3; 3; 7 ];
  Alcotest.(check int) "exact small median" 3 (Stats.Hdr.quantile h2 0.5)

let test_hdr_merge () =
  let a = Stats.Hdr.create () and b = Stats.Hdr.create () in
  for v = 1 to 100 do
    Stats.Hdr.record a v
  done;
  for v = 101 to 200 do
    Stats.Hdr.record b v
  done;
  Stats.Hdr.merge ~into:a b;
  Alcotest.(check int) "merged count" 200 (Stats.Hdr.count a);
  Alcotest.(check int) "merged max" 200 (Stats.Hdr.max_value a);
  Alcotest.(check (float 0.001)) "merged mean" 100.5 (Stats.Hdr.mean a)

let test_hdr_edges () =
  let h = Stats.Hdr.create () in
  Stats.Hdr.record h (-5);
  Alcotest.(check int) "negative clamps to 0" 0 (Stats.Hdr.quantile h 1.0);
  Alcotest.(check int) "empty quantile" 0 (Stats.Hdr.quantile (Stats.Hdr.create ()) 0.5);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Hdr.quantile: q outside [0,1]") (fun () ->
      ignore (Stats.Hdr.quantile h 1.5))

(* ------------------------------------------------------------------ *)
(* Shard pool *)

let test_shard_uniqueness () =
  let p = Shard.create ~shards:3 ~capacity:64 ~seed:7 () in
  let seen = Hashtbl.create 128 in
  let granted = ref [] in
  for round = 1 to 40 do
    ignore round;
    for s = 0 to Shard.shards p - 1 do
      match Shard.acquire p ~shard:s ~client:s with
      | None -> Alcotest.fail "acquire failed below capacity"
      | Some name ->
        if Hashtbl.mem seen name then
          Alcotest.failf "name %d granted twice" name;
        Hashtbl.replace seen name ();
        (match Shard.shard_of_name p name with
        | Some s' when s' = s -> ()
        | _ -> Alcotest.failf "name %d does not map back to shard %d" name s);
        granted := name :: !granted
    done
  done;
  Alcotest.(check int) "taken = granted" 120 (Shard.taken_count p);
  Alcotest.(check int) "no leak while held" 0 (Shard.leaked p ~held:120);
  List.iter (fun name -> Shard.release p ~name) !granted;
  Alcotest.(check int) "all cells returned" 0 (Shard.taken_count p);
  Alcotest.(check int) "acquire counter" 120 (Shard.acquires p);
  Alcotest.(check int) "release counter" 120 (Shard.releases p)

let test_shard_exhaustion () =
  let p = Shard.create ~shards:1 ~capacity:4 ~seed:3 () in
  let m = Shard.per_shard_namespace p in
  let successes = ref 0 in
  (try
     for _ = 1 to 1000 do
       match Shard.acquire p ~shard:0 ~client:0 with
       | Some _ -> incr successes
       | None -> raise Exit
     done
   with Exit -> ());
  if !successes > m then
    Alcotest.failf "%d acquires from a namespace of %d" !successes m;
  Alcotest.(check bool) "exhaustion recorded" true (Shard.failures p > 0)

let test_shard_routing () =
  let p = Shard.create ~shards:4 ~capacity:16 ~seed:1 () in
  let counts = Array.make 4 0 in
  for client = 0 to 399 do
    let s = Shard.shard_of_client p client in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
    Alcotest.(check int) "routing is stable" s (Shard.shard_of_client p client);
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun i c -> if c = 0 then Alcotest.failf "shard %d never routed to" i)
    counts;
  Alcotest.(check bool) "out-of-range name" true
    (Shard.shard_of_name p (Shard.namespace p) = None);
  Alcotest.(check bool) "negative name" true (Shard.shard_of_name p (-1) = None)

(* Words allocated by [f ()], minor and direct-major, promoted counted
   once.  The forced minor collections flush OCaml 5's per-domain
   counters and leave nothing from before the call to promote. *)
let words_allocated f =
  Gc.minor ();
  let mi0, pr0, ma0 = Gc.counters () in
  let x = f () in
  Gc.minor ();
  let mi1, pr1, ma1 = Gc.counters () in
  ignore (Sys.opaque_identity x);
  int_of_float (mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0))

(* The namespace is one bit per TAS object: 2 x 8192 cells are a
   2 KB bitmap.  A boxed atomic per cell plus its array cost 49,462
   words here. *)
let test_shard_create_words () =
  let w =
    words_allocated (fun () -> Shard.create ~shards:2 ~capacity:4096 ~seed:1 ())
  in
  if w > 1024 then Alcotest.failf "Shard.create allocated %d words" w

(* The names a scripted acquire/release sequence receives, recorded on
   the boxed-atomic pool: same seed, same coins, same TAS semantics. *)
let test_shard_pinned_names () =
  let p = Shard.create ~shards:2 ~capacity:64 ~seed:7 () in
  let got = ref [] in
  let acquire s client =
    match Shard.acquire p ~shard:s ~client with
    | Some n ->
      got := n :: !got;
      n
    | None -> Alcotest.fail "acquire failed below capacity"
  in
  let first = Array.init 20 (fun i -> acquire (i mod 2) i) in
  List.iter (fun i -> Shard.release p ~name:first.(i)) [ 0; 3; 5; 8; 13 ];
  for i = 0 to 9 do
    ignore (acquire (i mod 2) (100 + i))
  done;
  Alcotest.(check (list int))
    "names"
    [ 60; 175; 50; 137; 40; 176; 49; 177; 22; 155; 7; 151; 8; 169; 10;
      191; 56; 145; 26; 186; 42; 163; 13; 131; 46; 142; 18; 128; 27; 132 ]
    (List.rev !got);
  Alcotest.(check int) "probes" 32 (Shard.probes p);
  Alcotest.(check int) "taken" 25 (Shard.taken_count p)

let test_shard_outside_refused () =
  let p = Shard.create ~shards:2 ~capacity:64 ~seed:7 () in
  let ns = Shard.namespace p in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "retake %d" name)
        true
        (Shard.retake p ~name = `Outside);
      Alcotest.check_raises
        (Printf.sprintf "release %d" name)
        (Invalid_argument "Shard.release: name outside the pool's namespace")
        (fun () -> Shard.release p ~name))
    [ ns; ns + 1; 10 * ns; -1 ];
  Alcotest.(check int) "nothing taken" 0 (Shard.taken_count p);
  Alcotest.(check bool) "in range retakes" true (Shard.retake p ~name:(ns - 1) = `Taken);
  Alcotest.(check bool) "twice is evidence" true
    (Shard.retake p ~name:(ns - 1) = `Already);
  Alcotest.(check int) "one cell taken" 1 (Shard.taken_count p)

(* ------------------------------------------------------------------ *)
(* Bench artifact *)

let sample_artifact () =
  {
    Service_bench.shards = 2;
    capacity = 128;
    conns = 4;
    clients = 64;
    rate = 1000.;
    duration_s = 5.;
    seed = 1;
    wall_s = 5.1;
    offered = 5000;
    acquired = 5000;
    acquire_failures = 0;
    released = 5000;
    errors = 0;
    timeouts = 0;
    violations = 0;
    leaked = 0;
    reconnects = 0;
    throughput = 1960.;
    lat_p50 = 120_000;
    lat_p99 = 900_000;
    lat_p999 = 2_500_000;
    lat_mean = 180_000.;
    lat_max = 3_000_000;
  }

let test_artifact_roundtrip () =
  let a = sample_artifact () in
  let k = Service_bench.kind in
  let text = k.Engine.Artifact.encode a in
  Alcotest.(check bool) "one line" true
    (String.index text '\n' = String.length text - 1);
  Alcotest.(check bool) "artifact round-trips" true
    (Engine.Artifact.of_string k text = Ok a)

let test_artifact_schema_rejects () =
  let k = Service_bench.kind in
  let expect_error label text =
    match Engine.Artifact.of_string k text with
    | Ok _ -> Alcotest.failf "%s decoded" label
    | Error _ -> ()
  in
  expect_error "wrong kind" {|{"kind":"bench","schema":1}|};
  expect_error "wrong schema" {|{"kind":"bench-service","schema":2}|};
  expect_error "missing field" {|{"kind":"bench-service","schema":1}|}

let test_artifact_check () =
  let base = sample_artifact () in
  let check current =
    Engine.Artifact.check Service_bench.kind ~threshold:0.5 ~baseline:base
      ~current
  in
  Alcotest.(check (list string)) "clean run passes" [] (check base);
  let bad = { base with violations = 1; leaked = 2; errors = 3 } in
  Alcotest.(check int) "audit failures are findings" 3 (List.length (check bad));
  let slow = { base with throughput = base.throughput /. 4. } in
  Alcotest.(check int) "throughput collapse is a finding" 1
    (List.length (check slow));
  let within = { base with throughput = base.throughput *. 0.6 } in
  Alcotest.(check (list string))
    "throughput within threshold passes" [] (check within)

(* ------------------------------------------------------------------ *)
(* End-to-end: a real serving loop on its own domain (fork is
   unavailable once any test has created a domain; the real-process
   SIGTERM path is covered by CI's service-smoke job against the
   renamed binary). *)

let test_e2e_sync_ops () =
  let path = fresh_socket_path () in
  let pid = start_server (base_cfg path) in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server pid) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      let names =
        List.init 10 (fun i -> getf "acquire" (Client.acquire c ~client:i))
      in
      let distinct = List.sort_uniq Int.compare names in
      Alcotest.(check int) "10 distinct names" 10 (List.length distinct);
      let stats = Jsonu.obj (getf "stats" (Client.stats c)) in
      Alcotest.(check int) "server sees 10 taken" 10 (Jsonu.int_ stats "taken");
      Alcotest.(check int) "ledger sees 10 held" 10
        (Jsonu.int_ stats "held_by_sessions");
      List.iter
        (fun name -> getf "release" (Client.release c ~client:0 ~name))
        names;
      let stats = Jsonu.obj (getf "stats" (Client.stats c)) in
      Alcotest.(check int) "all returned" 0 (Jsonu.int_ stats "taken");
      (* Releasing a name we do not hold is refused, not crashed — and
         surfaces as a typed server error, not a transport failure. *)
      (match Client.release c ~client:0 ~name:3 with
      | Error (Client.Remote { code; _ }) ->
        Alcotest.(check int) "err_not_held surfaces" Wire.err_not_held code
      | Error (Client.Transport e) ->
        Alcotest.failf "transport failure instead of err_not_held: %s" e
      | Error (Client.Busy _) -> Alcotest.fail "release refused as busy"
      | Ok () -> Alcotest.fail "release of unheld name succeeded");
      Client.close c);
  ()

let test_e2e_json_mode () =
  let path = fresh_socket_path () in
  let pid = start_server (base_cfg path) in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server pid) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~mode:Wire.Json ~path ()) in
      let name = getf "acquire" (Client.acquire c ~client:5) in
      getf "release" (Client.release c ~client:5 ~name);
      let stats = Jsonu.obj (getf "stats" (Client.stats c)) in
      Alcotest.(check int) "json session, zero taken" 0
        (Jsonu.int_ stats "taken");
      Client.close c)

let test_e2e_shutdown_request () =
  let path = fresh_socket_path () in
  let pid = start_server (base_cfg path) in
  let c = get "connect" (Client.connect ~path ()) in
  ignore (getf "acquire" (Client.acquire c ~client:1));
  getf "shutdown" (Client.shutdown c);
  Client.close c;
  (* The held name is auto-released in the drain: exit must be clean. *)
  Alcotest.(check int) "clean exit after shutdown request" 0
    (exit_code (Server.join pid));
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

let test_e2e_sigterm_drains () =
  let path = fresh_socket_path () in
  let s = start_server (base_cfg path) in
  (* The signal glue renamed installs: SIGTERM triggers the stop
     handle, which must drain and release everything still held. *)
  let prev =
    Sys.signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Server.stop (Server.spawned_handle s)))
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.signal Sys.sigterm prev))
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      (* Hold 20 names and never release: the drain must return every
         slot and exit clean (leak accounting = 0). *)
      let names =
        List.init 20 (fun i -> getf "acquire" (Client.acquire c ~client:i))
      in
      Alcotest.(check int) "20 distinct held" 20
        (List.length (List.sort_uniq Int.compare names));
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      (* Make sure the handler has run before blocking in join. *)
      let rec spin n =
        if (not (Server.stop_requested (Server.spawned_handle s))) && n > 0
        then begin
          ignore (Unix.select [] [] [] 0.01);
          spin (n - 1)
        end
      in
      spin 500;
      Alcotest.(check bool) "signal reached the stop handle" true
        (Server.stop_requested (Server.spawned_handle s));
      (match Server.join s with
      | Error e -> Alcotest.failf "server failed: %s" e
      | Ok r ->
        Alcotest.(check int) "every held name auto-released" 20
          r.Server.drained_releases;
        Alcotest.(check int) "no slots leaked at exit" 0 r.Server.taken_at_exit;
        Alcotest.(check bool) "clean report" true (Server.report_clean r));
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
      Client.close c)

(* Stop lands while a pipelined burst is still being read and served:
   the drain takes one step (the shard queues are empty at the end of
   every tick), yet every granted name must come back, and the replies
   the client does get must be whole frames up to the close. *)
let test_e2e_stop_mid_burst () =
  let path = fresh_socket_path () in
  let s = start_server (base_cfg ~shards:1 ~capacity:4096 path) in
  let c = get "connect" (Client.connect ~path ()) in
  let burst = 6000 in
  for client = 1 to burst do
    Client.post c
      (Wire.Acquire { id = Client.fresh_id c; client; token = 0; deadline_ms = 0 })
  done;
  (match Client.flush c with Ok () -> () | Error e -> Alcotest.failf "flush: %s" e);
  (* The burst is larger than one server read, so most of it is still
     unread or queued when the stop lands. *)
  Server.stop (Server.spawned_handle s);
  let fd = Client.fd c in
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. 20. in
  let rec read_all () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "server never closed the connection";
    match Unix.select [ fd ] [] [] 0.5 with
    | [], _, _ -> read_all ()
    | _ -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        read_all ()
      | exception Unix.Unix_error (ECONNRESET, _, _) -> ())
  in
  read_all ();
  let bytes = Buffer.to_bytes buf in
  let granted = ref 0 and replies = ref 0 in
  let rec decode pos =
    let len = Bytes.length bytes - pos in
    if len > 0 then
      match Wire.decode_response Wire.Binary bytes ~pos ~len with
      | Wire.Frame (r, used) ->
        incr replies;
        (match r with Wire.Acquired _ -> incr granted | _ -> ());
        decode (pos + used)
      | Wire.Need_more ->
        Alcotest.failf "torn frame: %d trailing byte(s) at close" len
      | Wire.Corrupt m -> Alcotest.failf "corrupt reply stream: %s" m
  in
  decode 0;
  Client.close c;
  Alcotest.(check bool) "some of the burst was served" true (!granted > 0);
  Alcotest.(check bool) "at most one reply per request" true
    (!replies <= burst);
  match Server.join s with
  | Error e -> Alcotest.failf "server failed: %s" e
  | Ok r ->
    Alcotest.(check int) "no slots leaked at exit" 0 r.Server.taken_at_exit;
    Alcotest.(check int) "every unreleased grant drained" !granted
      r.Server.drained_releases

let test_e2e_dead_client_cleanup () =
  let path = fresh_socket_path () in
  let pid = start_server (base_cfg path) in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server pid) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      ignore (getf "acquire" (Client.acquire c ~client:1));
      ignore (getf "acquire" (Client.acquire c ~client:2));
      (* Die without releasing: the server must reclaim our slots. *)
      Client.close c;
      let c2 = get "connect" (Client.connect ~path ()) in
      let deadline = Unix.gettimeofday () +. 5. in
      let rec wait () =
        let stats = Jsonu.obj (getf "stats" (Client.stats c2)) in
        if Jsonu.int_ stats "taken" = 0 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.failf "slots not reclaimed: %d still taken"
            (Jsonu.int_ stats "taken")
        else begin
          ignore (Unix.select [] [] [] 0.05);
          wait ()
        end
      in
      wait ();
      Client.close c2)

let test_e2e_protocol_corruption () =
  let path = fresh_socket_path () in
  let pid = start_server (base_cfg path) in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server pid) with _ -> ())
    (fun () ->
      let c = get "connect" (Client.connect ~path ()) in
      (* An oversized length prefix: the server must answer with an
         err_proto error and close, not crash. *)
      let fd = Client.fd c in
      ignore (Unix.write_substring fd "\xff\xff\xff\xff" 0 4);
      (match Client.recv c ~timeout:5. with
      | Ok (Some (Wire.Error { code; _ })) ->
        Alcotest.(check int) "err_proto" Wire.err_proto code
      | other ->
        Alcotest.failf "expected protocol error, got %s"
          (match other with
          | Ok (Some r) -> show_resp r
          | Ok None -> "timeout"
          | Error e -> "connection error: " ^ e));
      Client.close c;
      (* The daemon is still alive for new clients. *)
      let c2 = get "connect" (Client.connect ~path ()) in
      ignore (getf "stats" (Client.stats c2));
      Client.close c2)

let test_e2e_stale_socket_reclaim () =
  let path = fresh_socket_path () in
  (* Plant a stale socket file with no daemon behind it. *)
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (ADDR_UNIX path);
  Unix.close fd;
  let pid = start_server (base_cfg path) in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server pid) with _ -> ())
    (fun () ->
      let c = get "connect over reclaimed socket" (Client.connect ~path ()) in
      ignore (getf "stats" (Client.stats c));
      Client.close c)

let test_e2e_load_gen () =
  let path = fresh_socket_path () in
  let pid = start_server (base_cfg path) in
  Fun.protect
    ~finally:(fun () -> try ignore (stop_server pid) with _ -> ())
    (fun () ->
      let cfg =
        {
          (Load_gen.default_config ~path) with
          conns = 2;
          clients = 16;
          rate = 400.;
          duration_s = 1.0;
          seed = 11;
        }
      in
      match Load_gen.run cfg with
      | Error e -> Alcotest.failf "load_gen: %s" e
      | Ok r ->
        Alcotest.(check int) "no violations" 0 r.Load_gen.violations;
        Alcotest.(check int) "no leaks" 0 r.Load_gen.leaked;
        Alcotest.(check int) "no errors" 0 r.Load_gen.errors;
        Alcotest.(check int) "no timeouts" 0 r.Load_gen.timeouts;
        Alcotest.(check (list string))
          "the artifact audits clean" []
          (Service_bench.kind.Engine.Artifact.audit
             (Service_bench.of_run ~shards:1 ~capacity:64 ~cfg r));
        Alcotest.(check int) "acquired = released" r.Load_gen.acquired
          r.Load_gen.released;
        Alcotest.(check bool) "work was done" true (r.Load_gen.acquired > 0);
        Alcotest.(check int) "every latency recorded" r.Load_gen.acquired
          (Stats.Hdr.count r.Load_gen.latency))

(* ------------------------------------------------------------------ *)
(* Daemon: the renamed binary as a child process, and the soaks on it *)

let renamed = "../bin/renamed.exe"
let ( let* ) = Result.bind

(* No child process is left: waiting on any child fails with ECHILD. *)
let check_no_child () =
  Alcotest.(check bool) "no child process left" true
    (match Unix.waitpid [ WNOHANG ] (-1) with
    | exception Unix.Unix_error (ECHILD, _, _) -> true
    | _ -> false)

let check_scratch_gone name =
  Alcotest.(check bool) "scratch dir removed" false
    (Sys.file_exists
       (Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "%s_%d" name (Unix.getpid ()))))

let test_daemon_boot_stats_drain () =
  let r =
    Daemon.with_scratch ~binary:renamed ~keep:false ~name:"renamed_daemon_test"
      ~log:ignore (fun d ->
        let* () =
          Daemon.boot d [ "--shards"; "1"; "--capacity"; "64"; "--quiet" ]
        in
        let* f = Client.stats_once ~path:(Daemon.socket d) in
        Alcotest.(check int) "capacity from one-shot stats" 64
          (Jsonu.int_ f "capacity");
        Alcotest.(check bool) "rss readable" true (Daemon.rss_kb d > 0);
        Ok (Daemon.drain d))
  in
  Alcotest.(check (result int string)) "clean drain" (Ok 0) r;
  check_no_child ();
  check_scratch_gone "renamed_daemon_test"

let test_daemon_bad_flag () =
  match
    Daemon.with_scratch ~binary:renamed ~keep:false ~name:"renamed_daemon_test"
      ~log:ignore (fun d -> Daemon.boot d [ "--capacity"; "0"; "--quiet" ])
  with
  | Ok () -> Alcotest.fail "renamed --capacity 0 booted"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names exit 2" e)
      true
      (String.ends_with ~suffix:"(exit 2)" e);
    check_no_child ();
    check_scratch_gone "renamed_daemon_test"

let test_recovery_soak () =
  let cfg =
    {
      Recovery_bench.cycles = 1;
      rate = 200.;
      duration_s = 2.;
      conns = 2;
      clients = 32;
      shards = 2;
      capacity = 256;
      lease_ttl_s = 0.5;
      seed = 3;
      wire_faults = true;
      daemon = Some renamed;
      keep = false;
    }
  in
  match Recovery_bench.run cfg with
  | Error e -> Alcotest.failf "soak: %s" e
  | Ok art ->
    Alcotest.(check (list string)) "the soak audits clean" []
      (Recovery_bench.kind.Engine.Artifact.audit art);
    check_no_child ();
    check_scratch_gone "renamed_soak"

let test_overload_bad_input () =
  let cfg =
    {
      Overload_bench.overdrive = 3.;
      calibrate_rate = 1000.;
      calibrate_duration_s = 1.;
      duration_s = 1.;
      conns = 0;
      clients = 64;
      shards = 2;
      capacity = 256;
      max_queue = 128;
      deadline_ms = 250;
      drain_timeout_s = 1.;
      seed = 1;
      daemon = Some renamed;
      keep = false;
    }
  in
  (match Overload_bench.run cfg with
  | Ok _ -> Alcotest.fail "conns = 0 ran a soak"
  | Error e ->
    Alcotest.(check string) "names the input" "conns must be >= 1" e);
  check_no_child ();
  check_scratch_gone "renamed_overload"

(* ------------------------------------------------------------------ *)

let suite =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  [
    ( "service.wire",
      [
        qc qcheck_req_roundtrip;
        qc qcheck_resp_roundtrip;
        qc qcheck_req_truncation;
        qc qcheck_resp_truncation;
        tc "oversized binary frame" `Quick test_oversized_binary;
        tc "oversized json line" `Quick test_oversized_json;
        tc "unknown opcode" `Quick test_unknown_opcode;
        tc "bad payload length" `Quick test_bad_payload_length;
        tc "bad json line" `Quick test_bad_json_line;
      ] );
    ( "service.session",
      [
        tc "byte-at-a-time binary" `Quick (test_session_byte_at_a_time Wire.Binary);
        tc "byte-at-a-time json" `Quick (test_session_byte_at_a_time Wire.Json);
        tc "many frames per feed" `Quick test_session_many_per_feed;
        tc "mode detection" `Quick test_session_mode_detection;
        tc "corruption latches" `Quick test_session_corrupt_latch;
        tc "held-name ledger" `Quick test_session_ledger;
      ] );
    ( "service.hdr",
      [
        qc qcheck_hdr_relative_error;
        qc qcheck_hdr_quantiles_ordered;
        tc "exact counts" `Quick test_hdr_exact;
        tc "merge" `Quick test_hdr_merge;
        tc "edge cases" `Quick test_hdr_edges;
      ] );
    ( "service.shard",
      [
        tc "uniqueness and release" `Quick test_shard_uniqueness;
        tc "exhaustion" `Quick test_shard_exhaustion;
        tc "client routing" `Quick test_shard_routing;
        tc "create allocates one bit per cell" `Quick test_shard_create_words;
        tc "pinned names for seed 7" `Quick test_shard_pinned_names;
        tc "out-of-range names refused" `Quick test_shard_outside_refused;
      ] );
    ( "service.bench",
      [
        tc "artifact round-trip" `Quick test_artifact_roundtrip;
        tc "artifact schema rejects" `Quick test_artifact_schema_rejects;
        tc "regression check" `Quick test_artifact_check;
      ] );
    ( "service.e2e",
      [
        tc "sync ops" `Quick test_e2e_sync_ops;
        tc "json mode" `Quick test_e2e_json_mode;
        tc "shutdown request" `Quick test_e2e_shutdown_request;
        tc "sigterm drains held names" `Quick test_e2e_sigterm_drains;
        tc "stop mid-burst drains in one step" `Quick test_e2e_stop_mid_burst;
        tc "dead client cleanup" `Quick test_e2e_dead_client_cleanup;
        tc "protocol corruption" `Quick test_e2e_protocol_corruption;
        tc "stale socket reclaim" `Quick test_e2e_stale_socket_reclaim;
        tc "open-loop load audit" `Quick test_e2e_load_gen;
      ] );
    ( "service.daemon",
      [
        tc "boot, one-shot stats, drain" `Quick test_daemon_boot_stats_drain;
        tc "bad size flag exits 2" `Quick test_daemon_bad_flag;
        tc "recovery soak audits clean" `Quick test_recovery_soak;
        tc "overload soak rejects conns = 0" `Quick test_overload_bad_input;
      ] );
  ]
