(** The overload-soak artifact ([bench-service-overload], schema 1).

    Written by [repro_cli chaos overload]: a calibration run measures
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
