type t = {
  shards : int;
  capacity : int;
  conns : int;
  clients : int;
  rate : float;
  duration_s : float;
  seed : int;
  wall_s : float;
  offered : int;
  acquired : int;
  acquire_failures : int;
  released : int;
  errors : int;
  timeouts : int;
  violations : int;
  leaked : int;
  reconnects : int;
  throughput : float;
  lat_p50 : int;
  lat_p99 : int;
  lat_p999 : int;
  lat_mean : float;
  lat_max : int;
}

let of_run ~shards ~capacity ~cfg (r : Load_gen.result) =
  let q = Stats.Hdr.quantile r.latency in
  {
    shards;
    capacity;
    conns = cfg.Load_gen.conns;
    clients = cfg.Load_gen.clients;
    rate = cfg.Load_gen.rate;
    duration_s = cfg.Load_gen.duration_s;
    seed = cfg.Load_gen.seed;
    wall_s = r.wall_s;
    offered = r.offered;
    acquired = r.acquired;
    acquire_failures = r.acquire_failures;
    released = r.released;
    errors = r.errors;
    timeouts = r.timeouts;
    violations = r.violations;
    leaked = r.leaked;
    reconnects = r.reconnects;
    throughput = r.throughput;
    lat_p50 = q 0.5;
    lat_p99 = q 0.99;
    lat_p999 = q 0.999;
    lat_mean =
      (let m = Stats.Hdr.mean r.latency in
       if Float.is_nan m then 0. else m);
    lat_max = Stats.Hdr.max_value r.latency;
  }

let name = "bench-service"

let encode t =
  Engine.Artifact.line ~name ~schema:1
    [
      ("shards", Jsonu.Int t.shards);
      ("capacity", Jsonu.Int t.capacity);
      ("conns", Jsonu.Int t.conns);
      ("clients", Jsonu.Int t.clients);
      ("rate", Jsonu.Num t.rate);
      ("duration_s", Jsonu.Num t.duration_s);
      ("seed", Jsonu.Int t.seed);
      ("wall_s", Jsonu.Num t.wall_s);
      ("offered", Jsonu.Int t.offered);
      ("acquired", Jsonu.Int t.acquired);
      ("acquire_failures", Jsonu.Int t.acquire_failures);
      ("released", Jsonu.Int t.released);
      ("errors", Jsonu.Int t.errors);
      ("timeouts", Jsonu.Int t.timeouts);
      ("violations", Jsonu.Int t.violations);
      ("leaked", Jsonu.Int t.leaked);
      ("reconnects", Jsonu.Int t.reconnects);
      ("throughput", Jsonu.Num t.throughput);
      ("lat_p50_ns", Jsonu.Int t.lat_p50);
      ("lat_p99_ns", Jsonu.Int t.lat_p99);
      ("lat_p999_ns", Jsonu.Int t.lat_p999);
      ("lat_mean_ns", Jsonu.Num t.lat_mean);
      ("lat_max_ns", Jsonu.Int t.lat_max);
    ]

let decode f =
  {
    shards = Jsonu.int_ f "shards";
    capacity = Jsonu.int_ f "capacity";
    conns = Jsonu.int_ f "conns";
    clients = Jsonu.int_ f "clients";
    rate = Jsonu.num f "rate";
    duration_s = Jsonu.num f "duration_s";
    seed = Jsonu.int_ f "seed";
    wall_s = Jsonu.num f "wall_s";
    offered = Jsonu.int_ f "offered";
    acquired = Jsonu.int_ f "acquired";
    acquire_failures = Jsonu.int_ f "acquire_failures";
    released = Jsonu.int_ f "released";
    errors = Jsonu.int_ f "errors";
    timeouts = Jsonu.int_ f "timeouts";
    violations = Jsonu.int_ f "violations";
    leaked = Jsonu.int_ f "leaked";
    (* pre-survivability artifacts (the committed baseline) lack it *)
    reconnects = Jsonu.int_opt f "reconnects" ~default:0;
    throughput = Jsonu.num f "throughput";
    lat_p50 = Jsonu.int_ f "lat_p50_ns";
    lat_p99 = Jsonu.int_ f "lat_p99_ns";
    lat_p999 = Jsonu.int_ f "lat_p999_ns";
    lat_mean = Jsonu.num f "lat_mean_ns";
    lat_max = Jsonu.int_ f "lat_max_ns";
  }

let render t =
  String.concat "\n"
    [
      Printf.sprintf "service load: %d shard(s) x capacity %d, %d conn(s), %d client id(s)"
        t.shards t.capacity t.conns t.clients;
      Printf.sprintf "offered %.0f/s for %.1fs (seed %d): wall %.2fs" t.rate
        t.duration_s t.seed t.wall_s;
      Printf.sprintf
        "ops: %d offered, %d acquired (%d capacity-failed), %d released"
        t.offered t.acquired t.acquire_failures t.released;
      Printf.sprintf
        "audit: %d violation(s), %d leaked, %d error(s), %d timeout(s), \
         %d reconnect(s)"
        t.violations t.leaked t.errors t.timeouts t.reconnects;
      Printf.sprintf "throughput: %.0f op/s" t.throughput;
      Printf.sprintf
        "acquire latency: p50 %.1fus  p99 %.1fus  p999 %.1fus  mean %.1fus  max %.1fus"
        (float_of_int t.lat_p50 /. 1e3)
        (float_of_int t.lat_p99 /. 1e3)
        (float_of_int t.lat_p999 /. 1e3)
        (t.lat_mean /. 1e3)
        (float_of_int t.lat_max /. 1e3);
    ]

let summary t =
  Printf.sprintf "%.0f/s x %.1fs on %d shard(s): %.0f op/s, p99 %.1fus" t.rate
    t.duration_s t.shards t.throughput
    (float_of_int t.lat_p99 /. 1e3)

let finding = Engine.Artifact.finding

(* Invariants are absolute; throughput is relative to the baseline;
   latency is machine noise, recorded but never gated. *)
let audit t =
  List.filter_map Fun.id
    [
      finding (t.violations <> 0)
        "%d uniqueness violation(s) — two live grants of one name" t.violations;
      finding (t.leaked <> 0)
        "%d leaked slot(s) at drain (slot-conservation residue)" t.leaked;
      finding (t.errors <> 0) "%d protocol error(s)" t.errors;
      finding (t.timeouts <> 0) "%d operation(s) unanswered at drain"
        t.timeouts;
      finding (t.acquired = 0) "no successful acquires";
      finding
        (not (t.lat_p50 <= t.lat_p99 && t.lat_p99 <= t.lat_p999))
        "latency quantiles out of order: p50=%d p99=%d p999=%d ns" t.lat_p50
        t.lat_p99 t.lat_p999;
    ]

let regress ~threshold ~baseline ~current =
  let floor = (1. -. threshold) *. baseline.throughput in
  Option.to_list
    (finding
       (current.throughput < floor)
       "throughput fell to %.0f op/s (baseline %.0f, floor %.0f)"
       current.throughput baseline.throughput floor)

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
