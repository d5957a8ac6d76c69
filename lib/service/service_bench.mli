(** The service load-test artifact (kind ["bench-service"], schema 1,
    numbered [BENCH_SERVICE_<k>.json]; the committed baseline is
    [bench/BENCH_SERVICE_0.json]).

    A run of [repro_cli load] records the offered-load configuration,
    the audit counters from {!Load_gen} and the acquire-latency
    quantiles. *)

type t = {
  (* configuration *)
  shards : int;
  capacity : int;
  conns : int;
  clients : int;
  rate : float;
  duration_s : float;
  seed : int;
  (* audit *)
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
      (** mid-run connection resets survived by reconnecting (absent in
          pre-survivability artifacts, read as 0) *)
  throughput : float;
  (* latency, nanoseconds *)
  lat_p50 : int;
  lat_p99 : int;
  lat_p999 : int;
  lat_mean : float;
  lat_max : int;
}

val of_run :
  shards:int -> capacity:int -> cfg:Load_gen.config -> Load_gen.result -> t

val kind : t Engine.Artifact.kind
(** [audit]: zero uniqueness violations, leaked slots, errors and
    timeouts, at least one acquire, and ordered latency quantiles.
    Reconnects are survivable events, recorded but not failures.
    [regress]: throughput at least [(1 - threshold) x baseline].
    Absolute latency is machine noise, recorded but never gated. *)
