(** Open-loop Poisson load generator for the renaming daemon.

    Arrivals are a Poisson process: exponential inter-arrival gaps
    (rate [rate]) drawn from the repository's exact samplers
    ({!Prng.Dist.exponential_sample}, the §6 machinery), and an acquire
    is {e posted at its scheduled arrival time} whether or not earlier
    operations have completed — the open-loop discipline that exposes
    queueing delay instead of hiding it behind client backpressure.
    Each granted name is held for a sampled duration, then released.

    While running, the generator audits the service's two safety
    properties from the outside:

    - {b uniqueness}: a granted name must not already be held by this
      run (modulo a release in flight for it — the server may legally
      re-grant as soon as it processes the release);
    - {b conservation}: after the final drain releases everything, the
      server's [taken] count must be zero ([leaked] in the result).

    {b Connection loss is survived, not fatal}: a reset mid-run kills
    one slot, whose in-flight operations are counted [dropped] and
    whose held names are counted [abandoned] (the server reclaims them
    by disconnect-drain or lease expiry); the slot reconnects with
    capped exponential backoff.  Arrivals falling due while every slot
    is down are owed, and posted after reconnect {e with their original
    scheduled time} — the outage shows up as latency, never as a hole
    in the offered load.

    Acquire latency (scheduled arrival → [Acquired], so a generator
    that falls behind cannot hide queueing delay) is recorded in a
    {!Stats.Hdr} histogram in nanoseconds. *)

type hold =
  | Const of float  (** hold every name for exactly this many seconds *)
  | Exponential of float  (** exponential holds with this mean (seconds) *)

type config = {
  path : string;  (** daemon socket *)
  mode : Wire.mode;
  conns : int;  (** connections to spread load over *)
  clients : int;  (** client-id space (shard routing keys) *)
  rate : float;  (** target acquire arrivals per second *)
  duration_s : float;
  hold : hold;
  seed : int;
  reconnect_attempts : int;
      (** consecutive failed reconnects on one slot before the run
          aborts *)
  reconnect_backoff : float;
      (** base reconnect delay (seconds), doubled per consecutive
          failure, capped at 1 s, jittered *)
  deadline_ms : int;
      (** per-request budget stamped on the wire, measured from the
          {e scheduled} arrival (so time spent owed in the backlog
          counts against it); arrivals whose budget is spent before
          posting are counted [expired] locally.  [0] = no deadline *)
  drain_timeout_s : float;
      (** how long past [duration_s] the final drain may run before
          being cut short ([drain_complete = false] in the result) *)
  log : string -> unit;
}

val default_config : path:string -> config
(** Binary mode, 4 conns, 64 clients, 1000/s for 5 s, Exponential 1 ms
    holds, seed 1, 8 reconnect attempts with 50 ms base backoff, no
    deadline, 10 s drain timeout, silent log. *)

type result = {
  wall_s : float;  (** measured run wall time, arrivals through drain *)
  offered : int;  (** acquires posted (or locally expired before post) *)
  acquired : int;
  shed : int;  (** {!Wire.Busy} admission refusals *)
  expired : int;
      (** deadline-spent requests: shed by the server ([err_expired])
          or dropped locally before posting *)
  acquire_failures : int;  (** [err_capacity] responses *)
  released : int;
  errors : int;  (** error responses other than capacity/expired *)
  timeouts : int;  (** operations never answered before the drain gave up *)
  violations : int;  (** uniqueness violations observed *)
  leaked : int;  (** server [taken] after the final drain; -1 if unknown *)
  reconnects : int;  (** connection losses survived *)
  dropped : int;  (** in-flight (or never-postable) operations lost *)
  abandoned : int;  (** held names forgotten with their dead connection *)
  throughput : float;  (** (acquired + released) / wall_s *)
  goodput : float;
      (** acquired / wall_s — {e served} work only; shed and expired
          requests cost the client a refusal, not a wait, so they are
          excluded (coordinated-omission-free) *)
  drain_complete : bool;  (** the final drain finished within its timeout *)
  latency : Stats.Hdr.t;  (** acquire latency, nanoseconds *)
}

val run : config -> (result, string) Stdlib.result
(** Drive the load and return the audit.  [Error] covers setup failures
    (cannot connect) and a slot exhausting its reconnect budget. *)
