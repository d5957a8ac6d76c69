(** A [Domain]-based worker pool for independent trial jobs, with one
    execution mode: {!run_guarded}, the fault-tolerant mode {!Plan}
    runs every job through.

    Tasks are drawn from a shared atomic counter (the "queue" is just the
    next-unclaimed index, so claiming is a single [fetch_and_add]);
    results are handed to a consumer callback serialized by an internal
    mutex, so the consumer may write to a shared sink without further
    locking.  Job failures are the {e caller's} values (wrap them in a
    result type inside [f]); the pool adds cooperative interruption,
    watchdog abandonment of stuck workers, and a leak-free failure path.

    The pool executes; it does not seed.  Determinism across worker
    counts is the seed tree's job ({!Seed_tree}): as long as [f] is a
    pure function of its task, the multiset of results is independent of
    [workers]. *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count ()] capped at 8 — the same policy as
    {!Shm.Domain_runner}. *)

type outcome =
  | Completed  (** every task settled (consumed or abandoned-as-failed) *)
  | Interrupted
      (** [should_stop] fired (or a worker was abandoned) while tasks
          were still unclaimed; in-flight work was drained first *)

val run_guarded :
  workers:int ->
  ?watchdog:Watchdog.t ->
  ?should_stop:(unit -> bool) ->
  ?grace:float ->
  ?on_abandon:(Watchdog.view -> unit) ->
  f:(worker:int -> int -> 'a -> 'b) ->
  consume:(int -> 'b -> unit) ->
  'a array ->
  outcome
(** [run_guarded ~workers ~f ~consume tasks] applies [f ~worker i
    tasks.(i)] to every task on up to [workers] domains and calls
    [consume i result] at most once per task, in completion order, under
    the pool's mutex.  [f] runs concurrently and must not touch shared
    mutable state.  The fault-tolerance contract:

    - [f ~worker i task] receives its worker index so it can heartbeat a
      {!Watchdog}.  [f] is expected to capture per-job failures in its
      return value; an exception escaping [f] (or [consume]) is treated
      as an infrastructure fault — the pool stops claiming, joins every
      live domain, and re-raises, leaking nothing.
    - [should_stop] (default: never) is polled before every claim; once
      it returns [true], workers stop claiming, drain their in-flight
      job, and the call returns [Interrupted] if any task was left
      unsettled.  Wire this to a SIGINT/SIGTERM flag for graceful
      shutdown.
    - with [watchdog], a worker whose in-flight job runs past
      [timeout + grace] seconds ([grace] defaults to [2.0]) is
      {e abandoned}: its task is settled via [on_abandon view] (under the
      consumer mutex, exactly once — a late result from the stuck
      computation is discarded), and its domain is left parked in the
      stuck computation (OCaml domains cannot be killed; the zombie
      exits on its own if the computation ever returns).  Every other
      worker keeps draining the queue.

    Each task index is settled (consumed or abandoned) at most once, all
    under one mutex.  Always runs on spawned domains, even with
    [workers = 1], so the caller's domain stays free to monitor. *)
