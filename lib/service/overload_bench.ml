type t = {
  shards : int;
  capacity : int;
  conns : int;
  clients : int;
  calibrate_rate : float;
  capacity_ops : float;
  overdrive : float;
  rate : float;
  duration_s : float;
  seed : int;
  max_queue : int;
  deadline_ms : int;
  wall_s : float;
  offered : int;
  acquired : int;
  shed : int;
  expired : int;
  acquire_failures : int;
  released : int;
  errors : int;
  timeouts : int;
  violations : int;
  leaked : int;
  goodput : float;
  goodput_daemon : float;
  lat_p50 : int;
  lat_p99 : int;
  lat_max : int;
  rss_start_kb : int;
  rss_end_kb : int;
  queue_peak : int;
  queue_bound : int;
  level : string;
  drain_complete : bool;
}

let name = "bench-service-overload"

let encode t =
  Engine.Artifact.line ~name ~schema:1
    [
      ("shards", Jsonu.Int t.shards);
      ("capacity", Jsonu.Int t.capacity);
      ("conns", Jsonu.Int t.conns);
      ("clients", Jsonu.Int t.clients);
      ("calibrate_rate", Jsonu.Num t.calibrate_rate);
      ("capacity_ops", Jsonu.Num t.capacity_ops);
      ("overdrive", Jsonu.Num t.overdrive);
      ("rate", Jsonu.Num t.rate);
      ("duration_s", Jsonu.Num t.duration_s);
      ("seed", Jsonu.Int t.seed);
      ("max_queue", Jsonu.Int t.max_queue);
      ("deadline_ms", Jsonu.Int t.deadline_ms);
      ("wall_s", Jsonu.Num t.wall_s);
      ("offered", Jsonu.Int t.offered);
      ("acquired", Jsonu.Int t.acquired);
      ("shed", Jsonu.Int t.shed);
      ("expired", Jsonu.Int t.expired);
      ("acquire_failures", Jsonu.Int t.acquire_failures);
      ("released", Jsonu.Int t.released);
      ("errors", Jsonu.Int t.errors);
      ("timeouts", Jsonu.Int t.timeouts);
      ("violations", Jsonu.Int t.violations);
      ("leaked", Jsonu.Int t.leaked);
      ("goodput", Jsonu.Num t.goodput);
      ("goodput_daemon", Jsonu.Num t.goodput_daemon);
      ("lat_p50_ns", Jsonu.Int t.lat_p50);
      ("lat_p99_ns", Jsonu.Int t.lat_p99);
      ("lat_max_ns", Jsonu.Int t.lat_max);
      ("rss_start_kb", Jsonu.Int t.rss_start_kb);
      ("rss_end_kb", Jsonu.Int t.rss_end_kb);
      ("queue_peak", Jsonu.Int t.queue_peak);
      ("queue_bound", Jsonu.Int t.queue_bound);
      ("level", Jsonu.Str t.level);
      ("drain_complete", Jsonu.Bool t.drain_complete);
    ]

let decode f =
  {
    shards = Jsonu.int_ f "shards";
    capacity = Jsonu.int_ f "capacity";
    conns = Jsonu.int_ f "conns";
    clients = Jsonu.int_ f "clients";
    calibrate_rate = Jsonu.num f "calibrate_rate";
    capacity_ops = Jsonu.num f "capacity_ops";
    overdrive = Jsonu.num f "overdrive";
    rate = Jsonu.num f "rate";
    duration_s = Jsonu.num f "duration_s";
    seed = Jsonu.int_ f "seed";
    max_queue = Jsonu.int_ f "max_queue";
    deadline_ms = Jsonu.int_ f "deadline_ms";
    wall_s = Jsonu.num f "wall_s";
    offered = Jsonu.int_ f "offered";
    acquired = Jsonu.int_ f "acquired";
    shed = Jsonu.int_ f "shed";
    expired = Jsonu.int_ f "expired";
    acquire_failures = Jsonu.int_ f "acquire_failures";
    released = Jsonu.int_ f "released";
    errors = Jsonu.int_ f "errors";
    timeouts = Jsonu.int_ f "timeouts";
    violations = Jsonu.int_ f "violations";
    leaked = Jsonu.int_ f "leaked";
    goodput = Jsonu.num f "goodput";
    goodput_daemon = Jsonu.num f "goodput_daemon";
    lat_p50 = Jsonu.int_ f "lat_p50_ns";
    lat_p99 = Jsonu.int_ f "lat_p99_ns";
    lat_max = Jsonu.int_ f "lat_max_ns";
    rss_start_kb = Jsonu.int_ f "rss_start_kb";
    rss_end_kb = Jsonu.int_ f "rss_end_kb";
    queue_peak = Jsonu.int_ f "queue_peak";
    queue_bound = Jsonu.int_ f "queue_bound";
    level = Jsonu.str f "level";
    drain_complete = Jsonu.bool_ f "drain_complete";
  }

let render t =
  String.concat "\n"
    [
      Printf.sprintf
        "overload soak: %d shard(s) x capacity %d, %d conn(s), queue bound \
         %d, deadline %dms"
        t.shards t.capacity t.conns t.queue_bound t.deadline_ms;
      Printf.sprintf
        "capacity %.0f/s measured at %.0f/s; soaked at %.1fx = %.0f/s for \
         %.1fs (seed %d)"
        t.capacity_ops t.calibrate_rate t.overdrive t.rate t.duration_s t.seed;
      Printf.sprintf
        "ops: %d offered, %d served, %d shed (busy), %d expired, %d \
         capacity-failed, %d released"
        t.offered t.acquired t.shed t.expired t.acquire_failures t.released;
      Printf.sprintf
        "goodput %.0f/s daemon-side (%.0f%% of capacity; client in-window \
         %.0f/s); accepted latency p50 %.1fms p99 %.1fms max %.1fms"
        t.goodput_daemon
        (100. *. t.goodput_daemon /. Float.max 1e-9 t.capacity_ops)
        t.goodput
        (float_of_int t.lat_p50 /. 1e6)
        (float_of_int t.lat_p99 /. 1e6)
        (float_of_int t.lat_max /. 1e6);
      Printf.sprintf
        "daemon: RSS %d -> %d kB, queue peak %d/%d, level %s at end"
        t.rss_start_kb t.rss_end_kb t.queue_peak t.queue_bound t.level;
      Printf.sprintf
        "audit: %d violation(s), %d leaked, %d error(s), %d timeout(s), \
         drain %s"
        t.violations t.leaked t.errors t.timeouts
        (if t.drain_complete then "complete" else "CUT SHORT");
    ]

let summary t =
  Printf.sprintf
    "overload soak, %.1fx capacity %.0f/s: goodput %.0f/s, %d shed, %d \
     expired, level %s"
    t.overdrive t.capacity_ops t.goodput_daemon t.shed t.expired t.level

let finding = Engine.Artifact.finding

(* The absolute properties define overload survival. *)
let audit t =
  let plateau_floor = 0.8 *. t.capacity_ops in
  (* RSS flat: generous absolute+relative allowance — CI heaps differ,
     unbounded growth does not hide inside it over a soak. *)
  let rss_allowed =
    max (t.rss_start_kb + (t.rss_start_kb / 2)) (t.rss_start_kb + 32768)
  in
  List.filter_map Fun.id
    [
      finding (t.violations <> 0) "%d uniqueness violation(s) under overload"
        t.violations;
      finding (t.leaked < 0) "leak count unknown (final stats probe failed)";
      finding (t.leaked > 0) "%d leaked slot(s) after drain" t.leaked;
      finding (t.errors <> 0) "%d protocol error(s)" t.errors;
      finding (t.timeouts <> 0) "%d operation(s) unanswered at drain"
        t.timeouts;
      finding (t.acquired = 0) "no successful acquires";
      finding
        (t.shed + t.expired = 0)
        "nothing shed at %.1fx overdrive — admission control never engaged"
        t.overdrive;
      finding
        (t.queue_peak > t.queue_bound)
        "queue peak %d exceeded the %d bound — queues are not bounded"
        t.queue_peak t.queue_bound;
      (* The plateau criterion: goodput under overdrive within 20% of the
         same run's measured capacity.  Collapse (goodput falling with
         offered load) is exactly what this catches.  Daemon-side
         (served grants counted by the daemon over the arrival window)
         — the client-side number also folds in generator
         read-starvation, which on small machines is the generator's
         collapse, not the daemon's. *)
      finding
        (t.goodput_daemon < plateau_floor)
        "goodput %.0f/s collapsed below %.0f/s (80%% of capacity %.0f/s)"
        t.goodput_daemon plateau_floor t.capacity_ops;
      finding (t.rss_end_kb > rss_allowed)
        "daemon RSS grew %d -> %d kB (allowed %d)" t.rss_start_kb t.rss_end_kb
        rss_allowed;
      finding (not t.drain_complete) "final drain was cut short";
    ]

let regress ~threshold ~baseline ~current =
  let floor = (1. -. threshold) *. baseline.goodput_daemon in
  let p99_allowed =
    Float.max
      ((1. +. threshold) *. float_of_int baseline.lat_p99)
      5e8 (* 500 ms absolute floor: queue-bound delay is legitimate *)
  in
  List.filter_map Fun.id
    [
      finding
        (current.goodput_daemon < floor)
        "goodput fell to %.0f/s (baseline %.0f, floor %.0f)"
        current.goodput_daemon baseline.goodput_daemon floor;
      finding
        (float_of_int current.lat_p99 > p99_allowed)
        "accepted p99 %.1fms exceeds allowed %.1fms (baseline %.1fms)"
        (float_of_int current.lat_p99 /. 1e6)
        (p99_allowed /. 1e6)
        (float_of_int baseline.lat_p99 /. 1e6);
    ]

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
  overdrive : float;
  calibrate_rate : float;
  calibrate_duration_s : float;
  duration_s : float;
  conns : int;
  clients : int;
  shards : int;
  capacity : int;
  max_queue : int;
  deadline_ms : int;
  drain_timeout_s : float;
  seed : int;
  daemon : string option;
  keep : bool;
}

let log fmt =
  Printf.ksprintf (fun s -> Printf.eprintf "[overload] %s\n%!" s) fmt
let ( let* ) = Result.bind

let validate c =
  [
    (c.overdrive >= 1., "overdrive must be >= 1");
    (c.calibrate_rate > 0., "calibrate-rate must be > 0");
    (c.calibrate_duration_s > 0., "calibrate-duration must be > 0");
    (c.duration_s > 0., "duration must be > 0");
    (c.conns >= 1, "conns must be >= 1");
    (c.clients >= 1, "clients must be >= 1");
  ]
  |> List.find_opt (fun (ok, _) -> not ok)
  |> Option.fold ~none:(Ok ()) ~some:(fun (_, e) -> Error e)

let stat_int d key =
  match Client.stats_once ~path:(Daemon.socket d) with
  | Ok f -> ( try Jsonu.int_ f key with Jsonu.Malformed -> -1)
  | Error _ -> -1

(* Goodput measured where it is not distorted: the generator and daemon
   timeshare the machine, so under heavy overdrive the generator
   read-starves and grants land after the arrival window — the
   client-side count then reports the generator's collapse, not the
   daemon's.  Sample the daemon's own served counter at both edges of
   the window instead; the client-side number rides along in the
   artifact for comparison. *)
let timed_load c d ~tag ~rate ~duration_s =
  let a0 = stat_int d "acquires" in
  let sampler =
    (* repro-lint: allow domain-spawn — end-of-window stats sampler *)
    Domain.spawn (fun () ->
        Unix.sleepf duration_s;
        stat_int d "acquires")
  in
  let r =
    Load_gen.run
      {
        (Load_gen.default_config ~path:(Daemon.socket d)) with
        conns = c.conns;
        clients = c.clients;
        rate;
        duration_s;
        seed = c.seed;
        deadline_ms = c.deadline_ms;
        drain_timeout_s = c.drain_timeout_s;
        log = (fun s -> Printf.eprintf "[%s] %s\n%!" tag s);
      }
  in
  let a1 = Domain.join sampler in
  let* r = r in
  let daemon_goodput =
    if a0 >= 0 && a1 >= a0 then
      float_of_int (a1 - a0) /. Float.max 1e-9 duration_s
    else r.Load_gen.goodput
  in
  Ok (r, daemon_goodput)

(* Capacity is whatever the daemon actually serves when offered more
   than it can take: calibration keeps doubling the offered rate until
   goodput falls measurably short of it, and that saturated goodput —
   generator and daemon bottlenecks included — is the service rate the
   soak then overdrives.  Stopping at the first unsaturated rate would
   report the offered rate, not a capacity.  The generator and daemon
   share this machine, so the daemon's service rate depends on how hard
   the generator is pushing: the saturated run is the one whose CPU
   split matches the soak's, so {e its} daemon-side goodput is the
   capacity the plateau is judged against. *)
let rec calibrate c d rate tries =
  log "calibrating at %.0f/s for %.1fs" rate c.calibrate_duration_s;
  let* _, g =
    timed_load c d ~tag:"calibrate" ~rate ~duration_s:c.calibrate_duration_s
  in
  if g <= 0. then Error "calibration served nothing (goodput 0)"
  else if g >= 0.9 *. rate && tries > 0 then begin
    log "kept up at %.0f/s (goodput %.0f/s): not saturated, doubling" rate g;
    calibrate c d (2. *. rate) (tries - 1)
  end
  else Ok (rate, g)

let soak c d =
  (* The generator and daemon timeshare this machine, so at heavy
     overdrive the generator itself read-starves into looking like a
     slow client; the default 5 s stall deadline would then sever the
     measurement connections mid-soak (the disconnect path has its own
     e2e test).  A long stall timeout keeps the daemon's read-pausing
     backpressure — the behavior under test — while the harness stays
     connected. *)
  let* () =
    Daemon.boot d
      [
        "--shards"; string_of_int c.shards;
        "--capacity"; string_of_int c.capacity;
        "--max-queue"; string_of_int c.max_queue;
        "--stall-timeout"; "60";
        "--quiet";
      ]
    |> Result.map_error (( ^ ) "boot: ")
  in
  let* calibrated_rate, capacity_ops =
    calibrate c d c.calibrate_rate 6
    |> Result.map_error (( ^ ) "calibration failed: ")
  in
  let rate = c.overdrive *. capacity_ops in
  let rss_start = Daemon.rss_kb d in
  log "capacity %.0f/s; soaking at %.1fx = %.0f/s for %.1fs" capacity_ops
    c.overdrive rate c.duration_s;
  let* r, goodput_daemon =
    timed_load c d ~tag:"soak" ~rate ~duration_s:c.duration_s
    |> Result.map_error (( ^ ) "soak failed: ")
  in
  let rss_end = Daemon.rss_kb d in
  (* Final daemon-side snapshot: deepest queue seen and the overload
     level the state machine ended at. *)
  let queue_peak, level =
    match Client.stats_once ~path:(Daemon.socket d) with
    | Error _ -> (-1, "unreachable")
    | Ok f ->
      ( (try Jsonu.int_ f "queue_peak" with Jsonu.Malformed -> -1),
        match List.assoc_opt "overload" f with
        | Some o -> (
          try Jsonu.str (Jsonu.obj o) "level" with Jsonu.Malformed -> "unknown")
        | None -> "unknown" )
  in
  let daemon_exit = Daemon.drain d in
  if daemon_exit <> 0 then
    log "daemon exited %d (leak audit at shutdown)" daemon_exit;
  let q = Stats.Hdr.quantile r.Load_gen.latency in
  Ok
    ( {
        shards = c.shards;
        capacity = c.capacity;
        conns = c.conns;
        clients = c.clients;
        calibrate_rate = calibrated_rate;
        capacity_ops;
        overdrive = c.overdrive;
        rate;
        duration_s = c.duration_s;
        seed = c.seed;
        max_queue = c.max_queue;
        deadline_ms = c.deadline_ms;
        wall_s = r.Load_gen.wall_s;
        offered = r.Load_gen.offered;
        acquired = r.Load_gen.acquired;
        shed = r.Load_gen.shed;
        expired = r.Load_gen.expired;
        acquire_failures = r.Load_gen.acquire_failures;
        released = r.Load_gen.released;
        errors = r.Load_gen.errors;
        timeouts = r.Load_gen.timeouts;
        violations = r.Load_gen.violations;
        leaked = r.Load_gen.leaked;
        goodput = r.Load_gen.goodput;
        goodput_daemon;
        lat_p50 = q 0.5;
        lat_p99 = q 0.99;
        lat_max = Stats.Hdr.max_value r.Load_gen.latency;
        rss_start_kb = rss_start;
        rss_end_kb = rss_end;
        queue_peak;
        queue_bound = c.max_queue;
        level;
        drain_complete = r.Load_gen.drain_complete;
      },
      daemon_exit )

let run c =
  let* () = validate c in
  Daemon.with_scratch ?binary:c.daemon ~keep:c.keep ~name:"renamed_overload"
    ~log:(log "%s") (soak c)
