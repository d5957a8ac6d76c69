(** The daemon's overload state machine.

    Pure and explicit-now (like {!Lease}): the server feeds it queue
    depth and admission latency observations, it answers with a level —

    - {b Healthy}: everything admitted.
    - {b Degraded}: admitted, but the daemon is near its bound; new
      acquires whose shard queue is full are refused with
      {!Wire.Busy}.
    - {b Shedding}: every new acquire is refused immediately with
      {!Wire.Busy}; releases, renews and stats still execute, so held
      names keep draining — the path back to health.

    Transitions carry hysteresis in both dimensions: a {e band}
    (distinct hi/lo thresholds — between them the level freezes) and a
    {e dwell} (escalating past Degraded, and every de-escalation step,
    requires the pressure signal to hold for [dwell_s] continuously).
    Stepping is one level at a time, so Healthy and Shedding are never
    adjacent states of one observation — the no-flapping property the
    unit suite pins down. *)

type level = Healthy | Degraded | Shedding

val level_string : level -> string
val level_of_string : string -> level option

type config = {
  queue_hi : int;  (** shard queue depth at/above which pressure is high *)
  queue_lo : int;  (** depth at/below which pressure counts as low *)
  latency_hi_ms : float;  (** admission EMA above this is high pressure *)
  latency_lo_ms : float;
  dwell_s : float;
      (** continuous time a signal must hold to escalate past Degraded
          or to de-escalate one level *)
  ema_alpha : float;  (** admission-latency EMA smoothing, in (0, 1] *)
  retry_floor_ms : int;  (** minimum {!retry_after_ms} hint *)
  retry_cap_ms : int;  (** maximum hint *)
}

val default_config : queue_bound:int -> config
(** hi = 3/4 of the bound, lo = 1/4, latency 100/20 ms, 1 s dwell,
    alpha 0.2, hints in [5, 2000] ms. *)

type t

val create : ?config:config -> queue_bound:int -> unit -> t
(** Starts {!Healthy}.  [config] defaults to
    [default_config ~queue_bound]. *)

val level : t -> level
val ema_ms : t -> float
(** Smoothed admission latency (admission to pick-up by the serve
    pass), ms. *)

val transitions : t -> int
(** Level changes since creation — the flapping diagnostic. *)

val note_latency : t -> float -> unit
(** Feed one admission-latency sample (ms) into the EMA. *)

val observe : t -> now:float -> queue_depth:int -> level
(** Evaluate the thresholds against the deepest shard queue and step
    the machine; returns the (possibly new) level.  [now] is monotonic
    seconds ({!Mono.now} in the daemon, anything consistent in tests).

    When the queue sits at or below the low-water mark the latency EMA
    also decays on the wall between observations (half-life about a
    third of the dwell): the EMA is fed only by admissions that flow,
    so without decay a machine that escalated to Shedding on latency
    would freeze its own evidence high and never step down. *)

val retry_after_ms : t -> queue_depth:int -> int
(** The backoff hint carried by {!Wire.Busy}: queue depth times the
    smoothed per-request service time, clamped to
    [[retry_floor_ms, retry_cap_ms]]. *)

val to_json : t -> queue_depth:int -> queue_bound:int -> Jsonu.t
(** The [overload] object embedded in the daemon's stats reply. *)
