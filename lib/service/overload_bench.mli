(** The overload-soak artifact ([bench-service-overload], schema 1).

    Written by {!run} (behind [repro_cli chaos overload]): a calibration
    run measures
    the daemon's single-rate capacity, then a soak drives open-loop
    Poisson traffic at [overdrive] times that and records whether
    goodput plateaued (within 20% of capacity) instead of collapsing,
    with the shed/expired split, accepted-request latency, daemon RSS
    at both ends, and the queue/overload telemetry from the final
    stats snapshot.

    Shares the [bench/BENCH_SERVICE_<k>.json] numbering with
    {!Service_bench} and {!Recovery_bench}; the committed baseline is
    index 2, gated by [--check]. *)

type t = {
  shards : int;
  capacity : int;
  conns : int;
  clients : int;
  calibrate_rate : float;  (** offered rate of the calibration run *)
  capacity_ops : float;
      (** measured capacity: the saturated calibration run's
          daemon-side goodput, /s *)
  overdrive : float;  (** soak rate = [overdrive * capacity_ops] *)
  rate : float;  (** soak offered rate, /s *)
  duration_s : float;
  seed : int;
  max_queue : int;
  deadline_ms : int;  (** per-request budget stamped by the soak *)
  wall_s : float;
  offered : int;
  acquired : int;  (** served — the goodput numerator *)
  shed : int;  (** {!Wire.Busy} refusals *)
  expired : int;  (** deadline-expired sheds (client- and server-side) *)
  acquire_failures : int;  (** [err_capacity] *)
  released : int;
  errors : int;
  timeouts : int;
  violations : int;
  leaked : int;
  goodput : float;
      (** client-side: grants received inside the arrival window, /s —
          on starved machines this folds in generator read-starvation *)
  goodput_daemon : float;
      (** daemon-side: growth of the daemon's served-acquire counter
          over the arrival window, /s — the plateau-gate numerator *)
  lat_p50 : int;  (** accepted-request latency, ns *)
  lat_p99 : int;
  lat_max : int;
  rss_start_kb : int;  (** daemon RSS before the soak *)
  rss_end_kb : int;  (** and after the drain *)
  queue_peak : int;  (** daemon-reported deepest shard queue *)
  queue_bound : int;
  level : string;  (** overload level at the final snapshot *)
  drain_complete : bool;
}

val kind : t Engine.Artifact.kind
(** [audit] holds the absolute survival properties: zero violations,
    leaks (and a known leak count), errors and timeouts, at least one
    acquire, something shed, queue peak within its bound, daemon-side
    goodput at least 80% of the same run's measured capacity (the
    plateau criterion), RSS growth within half again or 32 MiB of the
    start, and a complete drain.  [regress] bounds daemon-side goodput
    below by [(1 - threshold) x baseline] and accepted p99 above by
    [(1 + threshold) x baseline], with a 500 ms absolute p99 floor. *)

(** {1 The soak} *)

type config = {
  overdrive : float;  (** soak rate as a multiple of capacity, >= 1 *)
  calibrate_rate : float;  (** first calibration rate, /s, > 0 *)
  calibrate_duration_s : float;  (** per calibration run, > 0 *)
  duration_s : float;  (** soak load window, > 0 *)
  conns : int;  (** >= 1 *)
  clients : int;  (** >= 1 *)
  shards : int;
  capacity : int;  (** per shard *)
  max_queue : int;  (** the daemon's per-shard admission bound *)
  deadline_ms : int;  (** per-request budget stamped by the generator *)
  drain_timeout_s : float;
  seed : int;
  daemon : string option;  (** renamed binary; see {!Daemon.with_scratch} *)
  keep : bool;  (** keep the scratch directory *)
}

val run : config -> (t * int, string) result
(** Check [config] before anything boots, then inside one
    {!Daemon.with_scratch}: boot the daemon, calibrate (double the rate
    from [calibrate_rate], at most six times, until daemon-side goodput
    falls below 90% of it; that goodput is the capacity), soak at
    [overdrive] times capacity, snapshot the daemon's stats and drain
    it.  Returns the artifact and the drain's exit code — the daemon's
    leak audit, a condition of the run rather than an artifact field.
    Progress goes to stderr as "[overload] ...". *)
