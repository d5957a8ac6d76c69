(** The kill/restart soak, its artifact and its regression gate.

    {!run} (behind [repro_cli chaos service]) drives {!Load_gen} through
    N [SIGKILL]+[--recover] cycles of a real [renamed] daemon
    (optionally through the {!Chaos.Wire_fault} proxy), and the outcome
    is recorded in the [BENCH_SERVICE_<k>.json] sequence with kind
    ["bench-service-recovery"], schema 1.  The committed baseline is
    [bench/BENCH_SERVICE_1.json]. *)

type t = {
  (* configuration *)
  cycles : int;  (** SIGKILL + --recover rounds *)
  rate : float;
  duration_s : float;  (** total load window across all cycles *)
  seed : int;
  shards : int;
  capacity : int;
  lease_ttl_s : float;
  wire_faults : bool;  (** load ran through the fault proxy *)
  (* load-side audit *)
  wall_s : float;
  offered : int;
  acquired : int;
  acquire_failures : int;
  released : int;
  errors : int;
  timeouts : int;
  violations : int;
  reconnects : int;  (** connection losses survived *)
  dropped : int;  (** in-flight operations lost to connection death *)
  abandoned : int;  (** held names forgotten on connection death *)
  throughput : float;
  (* recovery-side audit *)
  duplicate_grants : int;  (** journal replay: grants of live names *)
  leaked_after_expiry : int;
      (** slots still taken one TTL after the load drained; -1 unknown *)
  recovery_p50_ms : float;  (** SIGKILL observed -> daemon accepting again *)
  recovery_p99_ms : float;
  recovery_max_ms : float;
  journal_records : int;  (** intact records across all segments *)
  journal_torn_tails : int;  (** crash artifacts (expected under SIGKILL) *)
  journal_damaged : int;  (** CRC/framing damage — must be zero *)
  daemon_exit : int;  (** final graceful drain's exit code *)
}

val kind : t Engine.Artifact.kind
(** [audit] holds the soak's safety claims absolutely: zero duplicate
    grants across every journal segment, zero slots still taken after
    the last lease TTL passed (and a known count), zero uniqueness
    violations, errors, timeouts and damaged journal records, a clean
    final drain, at least one acquire, and at least one reconnect per
    kill cycle (fewer means the kills missed the load path).  [regress]
    bounds recovery p99 by [(1 + threshold) x baseline], with a 1 s
    absolute floor, since process restart time is machine noise. *)

(** {1 The soak} *)

type config = {
  cycles : int;  (** SIGKILL + --recover rounds, >= 0 *)
  rate : float;  (** acquire arrivals per second, > 0 *)
  duration_s : float;  (** total load window across all cycles, > 0 *)
  conns : int;  (** load-generator connections, >= 1 *)
  clients : int;  (** client-id space, >= 1 *)
  shards : int;
  capacity : int;  (** per shard *)
  lease_ttl_s : float;
  seed : int;
  wire_faults : bool;  (** route the load through the fault proxy *)
  daemon : string option;  (** renamed binary; see {!Daemon.with_scratch} *)
  keep : bool;  (** keep the scratch directory (socket, journal) *)
}

val run : config -> (t, string) result
(** Check [config] before anything boots, then inside one
    {!Daemon.with_scratch}: boot a journaled daemon (and the proxy), run
    the load on its own domain, and every [duration_s / (cycles + 1)]
    seconds SIGKILL the daemon, scan and replay its journal segment and
    reboot it with [--recover].  After the load, wait one lease TTL,
    read [taken], drain and scan the last segment.  Progress goes to
    stderr as "[soak] ...". *)
