(** A [Domain]-based worker pool for independent trial jobs, with one
    execution mode: {!run_guarded}, which {!Plan} runs every job
    through.

    Tasks are drawn from a shared atomic counter (the "queue" is just the
    next-unclaimed index, so claiming is a single [fetch_and_add]);
    results are handed to a consumer callback serialized by an internal
    mutex, so the consumer may write to a shared sink without further
    locking.  Job failures are the {e caller's} values (wrap them in a
    result type inside [f]); the pool adds cooperative interruption and
    a leak-free failure path.

    The pool executes; it does not seed.  Determinism across worker
    counts is the seed tree's job ({!Seed_tree}): as long as [f] is a
    pure function of its task, the multiset of results is independent of
    [workers]. *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count ()] capped at 8 — the same policy as
    {!Shm.Domain_runner}. *)

type outcome =
  | Completed  (** every task was consumed *)
  | Interrupted
      (** [should_stop] fired while tasks were still unclaimed; in-flight
          work was drained first *)

val run_guarded :
  workers:int ->
  ?should_stop:(unit -> bool) ->
  f:('a -> 'b) ->
  consume:(int -> 'b -> unit) ->
  'a array ->
  outcome
(** [run_guarded ~workers ~f ~consume tasks] applies [f tasks.(i)] to
    every task on up to [workers] domains and calls [consume i result]
    exactly once per claimed task, in completion order, under the pool's
    mutex.  [f] runs concurrently and must not touch shared mutable
    state.  The fault-tolerance contract:

    - [f] is expected to capture per-job failures in its return value;
      an exception escaping [f] (or [consume]) is treated as an
      infrastructure fault — the pool stops claiming, joins every
      domain, and re-raises, leaking nothing.
    - [should_stop] (default: never) is polled before every claim; once
      it returns [true], workers stop claiming, drain their in-flight
      job, and the call returns [Interrupted] if any task was left
      unclaimed.  Wire this to a SIGINT/SIGTERM flag for graceful
      shutdown.

    A job that never returns holds its worker until the process exits;
    the pool has no deadline.  Always runs on spawned domains, even with
    [workers = 1]. *)
