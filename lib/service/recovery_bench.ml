type t = {
  cycles : int;
  rate : float;
  duration_s : float;
  seed : int;
  shards : int;
  capacity : int;
  lease_ttl_s : float;
  wire_faults : bool;
  wall_s : float;
  offered : int;
  acquired : int;
  acquire_failures : int;
  released : int;
  errors : int;
  timeouts : int;
  violations : int;
  reconnects : int;
  dropped : int;
  abandoned : int;
  throughput : float;
  duplicate_grants : int;
  leaked_after_expiry : int;
  recovery_p50_ms : float;
  recovery_p99_ms : float;
  recovery_max_ms : float;
  journal_records : int;
  journal_torn_tails : int;
  journal_damaged : int;
  daemon_exit : int;
}

let name = "bench-service-recovery"

let encode t =
  Engine.Artifact.line ~name ~schema:1
    [
      ("cycles", Jsonu.Int t.cycles);
      ("rate", Jsonu.Num t.rate);
      ("duration_s", Jsonu.Num t.duration_s);
      ("seed", Jsonu.Int t.seed);
      ("shards", Jsonu.Int t.shards);
      ("capacity", Jsonu.Int t.capacity);
      ("lease_ttl_s", Jsonu.Num t.lease_ttl_s);
      ("wire_faults", Jsonu.Bool t.wire_faults);
      ("wall_s", Jsonu.Num t.wall_s);
      ("offered", Jsonu.Int t.offered);
      ("acquired", Jsonu.Int t.acquired);
      ("acquire_failures", Jsonu.Int t.acquire_failures);
      ("released", Jsonu.Int t.released);
      ("errors", Jsonu.Int t.errors);
      ("timeouts", Jsonu.Int t.timeouts);
      ("violations", Jsonu.Int t.violations);
      ("reconnects", Jsonu.Int t.reconnects);
      ("dropped", Jsonu.Int t.dropped);
      ("abandoned", Jsonu.Int t.abandoned);
      ("throughput", Jsonu.Num t.throughput);
      ("duplicate_grants", Jsonu.Int t.duplicate_grants);
      ("leaked_after_expiry", Jsonu.Int t.leaked_after_expiry);
      ("recovery_p50_ms", Jsonu.Num t.recovery_p50_ms);
      ("recovery_p99_ms", Jsonu.Num t.recovery_p99_ms);
      ("recovery_max_ms", Jsonu.Num t.recovery_max_ms);
      ("journal_records", Jsonu.Int t.journal_records);
      ("journal_torn_tails", Jsonu.Int t.journal_torn_tails);
      ("journal_damaged", Jsonu.Int t.journal_damaged);
      ("daemon_exit", Jsonu.Int t.daemon_exit);
    ]

let decode f =
  {
    cycles = Jsonu.int_ f "cycles";
    rate = Jsonu.num f "rate";
    duration_s = Jsonu.num f "duration_s";
    seed = Jsonu.int_ f "seed";
    shards = Jsonu.int_ f "shards";
    capacity = Jsonu.int_ f "capacity";
    lease_ttl_s = Jsonu.num f "lease_ttl_s";
    wire_faults = Jsonu.bool_ f "wire_faults";
    wall_s = Jsonu.num f "wall_s";
    offered = Jsonu.int_ f "offered";
    acquired = Jsonu.int_ f "acquired";
    acquire_failures = Jsonu.int_ f "acquire_failures";
    released = Jsonu.int_ f "released";
    errors = Jsonu.int_ f "errors";
    timeouts = Jsonu.int_ f "timeouts";
    violations = Jsonu.int_ f "violations";
    reconnects = Jsonu.int_ f "reconnects";
    dropped = Jsonu.int_ f "dropped";
    abandoned = Jsonu.int_ f "abandoned";
    throughput = Jsonu.num f "throughput";
    duplicate_grants = Jsonu.int_ f "duplicate_grants";
    leaked_after_expiry = Jsonu.int_ f "leaked_after_expiry";
    recovery_p50_ms = Jsonu.num f "recovery_p50_ms";
    recovery_p99_ms = Jsonu.num f "recovery_p99_ms";
    recovery_max_ms = Jsonu.num f "recovery_max_ms";
    journal_records = Jsonu.int_ f "journal_records";
    journal_torn_tails = Jsonu.int_ f "journal_torn_tails";
    journal_damaged = Jsonu.int_ f "journal_damaged";
    daemon_exit = Jsonu.int_ f "daemon_exit";
  }

let render t =
  String.concat "\n"
    [
      Printf.sprintf
        "recovery soak: %d SIGKILL+--recover cycle(s), %d shard(s) x capacity \
         %d, lease TTL %.2fs%s"
        t.cycles t.shards t.capacity t.lease_ttl_s
        (if t.wire_faults then ", wire faults on" else "");
      Printf.sprintf "offered %.0f/s for %.1fs (seed %d): wall %.2fs" t.rate
        t.duration_s t.seed t.wall_s;
      Printf.sprintf
        "ops: %d offered, %d acquired (%d capacity-failed), %d released, \
         throughput %.0f op/s"
        t.offered t.acquired t.acquire_failures t.released t.throughput;
      Printf.sprintf
        "survival: %d reconnect(s), %d dropped in flight, %d abandoned \
         hold(s)"
        t.reconnects t.dropped t.abandoned;
      Printf.sprintf
        "audit: %d duplicate grant(s), %d leaked after expiry, %d \
         violation(s), %d error(s), %d timeout(s)"
        t.duplicate_grants t.leaked_after_expiry t.violations t.errors
        t.timeouts;
      Printf.sprintf
        "journal: %d record(s), %d torn tail(s), %d damaged; final drain \
         exit %d"
        t.journal_records t.journal_torn_tails t.journal_damaged t.daemon_exit;
      Printf.sprintf "recovery time: p50 %.1fms  p99 %.1fms  max %.1fms"
        t.recovery_p50_ms t.recovery_p99_ms t.recovery_max_ms;
    ]

let summary t =
  Printf.sprintf "recovery soak, %d cycle(s) x %.0f/s: p99 %.0f ms, %d \
                  reconnect(s)"
    t.cycles t.rate t.recovery_p99_ms t.reconnects

let finding = Engine.Artifact.finding

let audit t =
  List.filter_map Fun.id
    [
      finding (t.duplicate_grants <> 0)
        "%d duplicate grant(s) — a recovered daemon re-issued a live name"
        t.duplicate_grants;
      finding (t.leaked_after_expiry < 0)
        "post-expiry leak count unknown (final stats probe failed)";
      finding (t.leaked_after_expiry > 0)
        "%d slot(s) still taken after the last lease TTL passed"
        t.leaked_after_expiry;
      finding (t.violations <> 0)
        "%d uniqueness violation(s) observed by the load generator"
        t.violations;
      finding (t.errors <> 0) "%d protocol error(s)" t.errors;
      finding (t.timeouts <> 0) "%d operation(s) unanswered at drain"
        t.timeouts;
      finding (t.journal_damaged <> 0)
        "%d damaged journal record(s) (CRC/framing)" t.journal_damaged;
      finding (t.daemon_exit <> 0) "final graceful drain exited %d"
        t.daemon_exit;
      finding (t.acquired = 0) "no successful acquires";
      finding (t.reconnects < t.cycles)
        "only %d reconnect incident(s) across %d kill cycle(s) — the kills \
         did not reach the load path"
        t.reconnects t.cycles;
    ]

(* Recovery time is relative, with an absolute floor: restart cost is
   mostly exec + bind, which CI machines jitter freely. *)
let regress ~threshold ~baseline ~current =
  let allowed =
    Float.max ((1. +. threshold) *. baseline.recovery_p99_ms) 1000.
  in
  Option.to_list
    (finding
       (current.recovery_p99_ms > allowed)
       "recovery p99 %.1fms exceeds allowed %.1fms (baseline %.1fms)"
       current.recovery_p99_ms allowed baseline.recovery_p99_ms)

let kind =
  {
    Engine.Artifact.name;
    schema = 1;
    prefix = "BENCH_SERVICE_";
    encode;
    decode;
    render;
    summary;
    audit;
    regress;
  }

(* ------------------------------------------------------------------ *)
(* The soak *)

type config = {
  cycles : int;
  rate : float;
  duration_s : float;
  conns : int;
  clients : int;
  shards : int;
  capacity : int;
  lease_ttl_s : float;
  seed : int;
  wire_faults : bool;
  daemon : string option;
  keep : bool;
}

let log fmt = Printf.ksprintf (fun s -> Printf.eprintf "[soak] %s\n%!" s) fmt
let ( let* ) = Result.bind

(* Nearest-rank percentile over an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let validate c =
  [
    (c.cycles >= 0, "cycles must be >= 0");
    (c.conns >= 1, "conns must be >= 1");
    (c.clients >= 1, "clients must be >= 1");
    (c.rate > 0., "rate must be > 0");
    (c.duration_s > 0., "duration must be > 0");
  ]
  |> List.find_opt (fun (ok, _) -> not ok)
  |> Option.fold ~none:(Ok ()) ~some:(fun (_, e) -> Error e)

(* Journal audit, summed across compactions: each --recover boot
   rewrites the file down to its live grants, so every dead window (and
   the final drain) is scanned as its own segment. *)
type journal_audit = {
  mutable records : int;
  mutable torn : int;
  mutable damaged : int;
  mutable dups : int;
}

let scan_segment a ~path tag =
  match Journal.read ~path with
  | Error e ->
    log "%s: journal unreadable: %s" tag e;
    a.damaged <- a.damaged + 1
  | Ok (s, live) ->
    a.records <- a.records + List.length s.Journal.records;
    if s.Journal.torn_tail then a.torn <- a.torn + 1;
    a.damaged <- a.damaged + s.Journal.damaged;
    a.dups <- a.dups + live.Journal.double_grants;
    log "%s: %d record(s), %d live grant(s), %d duplicate(s)%s%s" tag
      (List.length s.Journal.records)
      (List.length live.Journal.grants)
      live.Journal.double_grants
      (if s.Journal.torn_tail then ", torn tail" else "")
      (if s.Journal.damaged > 0 then
         Printf.sprintf ", %d DAMAGED" s.Journal.damaged
       else "")

let start_proxy c d ~listen_path =
  if not c.wire_faults then Ok None
  else
    Chaos.Wire_fault.start
      {
        (Chaos.Wire_fault.default_config ~listen_path
           ~upstream_path:(Daemon.socket d))
        with
        seed = c.seed;
        log = (fun s -> Printf.eprintf "[proxy] %s\n%!" s);
      }
    |> Result.map Option.some
    |> Result.map_error (( ^ ) "proxy: ")

let stop_proxy p =
  Chaos.Wire_fault.stop p;
  let n = Chaos.Wire_fault.counters p in
  log "proxy: %d conn(s), %d refused, %d chop(s), %d stall(s), %d reset(s)"
    n.Chaos.Wire_fault.conns n.Chaos.Wire_fault.refused
    n.Chaos.Wire_fault.chops n.Chaos.Wire_fault.stalls
    n.Chaos.Wire_fault.resets

let soak c d =
  let journal = Filename.concat (Daemon.dir d) "renamed.journal" in
  let proxy_sock = Filename.concat (Daemon.dir d) "proxy.sock" in
  let args =
    [
      "--shards"; string_of_int c.shards;
      "--capacity"; string_of_int c.capacity;
      "--lease-ttl"; Printf.sprintf "%g" c.lease_ttl_s;
      "--journal"; journal; "--recover"; "--quiet";
    ]
  in
  let* () = Result.map_error (( ^ ) "initial boot: ") (Daemon.boot d args) in
  let* proxy = start_proxy c d ~listen_path:proxy_sock in
  Fun.protect ~finally:(fun () -> Option.iter stop_proxy proxy) @@ fun () ->
  let load_cfg =
    {
      (Load_gen.default_config
         ~path:(if c.wire_faults then proxy_sock else Daemon.socket d))
      with
      conns = c.conns;
      clients = c.clients;
      rate = c.rate;
      duration_s = c.duration_s;
      hold = Load_gen.Exponential 0.02;
      seed = c.seed;
      (* Generous: every daemon kill costs each slot a burst of
         accept-then-reset retries against the proxy. *)
      reconnect_attempts = 50;
      reconnect_backoff = 0.02;
      log = (fun s -> Printf.eprintf "[load] %s\n%!" s);
    }
  in
  (* The kill/restart loop below must run while the load does. *)
  let load =
    (* repro-lint: allow domain-spawn — joined soak-driver domain *)
    Domain.spawn (fun () -> Load_gen.run load_cfg)
  in
  let audit = { records = 0; torn = 0; damaged = 0; dups = 0 } in
  let seg = c.duration_s /. float_of_int (c.cycles + 1) in
  let recov = Array.make c.cycles 0. in
  let rec cycle i =
    if i = c.cycles then Ok ()
    else begin
      Unix.sleepf seg;
      let t0 = Unix.gettimeofday () in
      log "cycle %d/%d: SIGKILL" (i + 1) c.cycles;
      Daemon.kill d;
      scan_segment audit ~path:journal (Printf.sprintf "cycle %d" (i + 1));
      let* () = Daemon.boot d args in
      recov.(i) <- (Unix.gettimeofday () -. t0) *. 1000.;
      log "cycle %d/%d: recovered in %.0f ms" (i + 1) c.cycles recov.(i);
      cycle (i + 1)
    end
  in
  let cycled = cycle 0 in
  let load_res = Domain.join load in
  let* () = Result.map_error (( ^ ) "soak failed: ") cycled in
  let* r = Result.map_error (( ^ ) "load failed: ") load_res in
  (* Every name abandoned to a killed connection is protected only by
     its lease: one TTL (plus sweep slack) later the server must be
     empty. *)
  Unix.sleepf (c.lease_ttl_s +. Float.max 0.5 (c.lease_ttl_s /. 5.));
  let leaked =
    match Client.stats_once ~path:(Daemon.socket d) with
    | Ok f -> ( try Jsonu.int_ f "taken" with Jsonu.Malformed -> -1)
    | Error _ -> -1
  in
  let daemon_exit = Daemon.drain d in
  scan_segment audit ~path:journal "final";
  Array.sort Float.compare recov;
  Ok
    {
      cycles = c.cycles;
      rate = c.rate;
      duration_s = c.duration_s;
      seed = c.seed;
      shards = c.shards;
      capacity = c.capacity;
      lease_ttl_s = c.lease_ttl_s;
      wire_faults = c.wire_faults;
      wall_s = r.Load_gen.wall_s;
      offered = r.Load_gen.offered;
      acquired = r.Load_gen.acquired;
      acquire_failures = r.Load_gen.acquire_failures;
      released = r.Load_gen.released;
      errors = r.Load_gen.errors;
      timeouts = r.Load_gen.timeouts;
      violations = r.Load_gen.violations;
      reconnects = r.Load_gen.reconnects;
      dropped = r.Load_gen.dropped;
      abandoned = r.Load_gen.abandoned;
      throughput = r.Load_gen.throughput;
      duplicate_grants = audit.dups;
      leaked_after_expiry = leaked;
      recovery_p50_ms = percentile recov 50.;
      recovery_p99_ms = percentile recov 99.;
      recovery_max_ms = percentile recov 100.;
      journal_records = audit.records;
      journal_torn_tails = audit.torn;
      journal_damaged = audit.damaged;
      daemon_exit;
    }

let run c =
  let* () = validate c in
  Daemon.with_scratch ?binary:c.daemon ~keep:c.keep ~name:"renamed_soak"
    ~log:(log "%s") (soak c)
