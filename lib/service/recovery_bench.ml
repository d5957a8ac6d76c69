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
