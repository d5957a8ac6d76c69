(** The deterministic step scheduler.

    Runs a set of processes (OCaml functions performing the {!Proc.Tas}
    effect) against a {!Location_space.t} under a chosen
    {!Adversary.t}.  One scheduled step = the execution of exactly one
    pending TAS followed by the process's local computation up to its
    next TAS request (or its return) — the paper's §2 cost model.

    Lifecycle: {!create} starts every process body and runs it up to its
    first pending TAS (local computation is free, so this consumes no
    steps); {!run_to_completion} then repeatedly asks the adversary for an
    action until no process is waiting, i.e. all have finished or
    crashed. *)

type t

exception Step_limit_exceeded
(** Raised by {!run_to_completion} when the step budget is exhausted —
    a guard against non-terminating algorithm/adversary pairs. *)

val create :
  ?registers:Register_space.t ->
  space:Location_space.t ->
  adversary:Adversary.t ->
  rng:Prng.Splitmix.t ->
  n:int ->
  body:(int -> unit -> int option) ->
  unit ->
  t
(** [create ~space ~adversary ~rng ~n ~body ()] starts processes
    [0 .. n-1]; [body pid] is the code of process [pid], returning its
    name (or any int payload).  [rng] seeds the adversary's private
    randomness.  [registers] (default: a fresh {!Register_space}) backs
    the read/write effects. *)

val run_to_completion : ?max_steps:int -> t -> unit
(** Drive the schedule until every process has finished or crashed.
    [max_steps] (default [10_000_000]) bounds the total number of
    executed TAS operations.  @raise Step_limit_exceeded on overrun. *)

(** {1 Results} *)

val name_of : t -> int -> int option
(** [name_of t pid] is the name returned by [pid]'s body ([None] if the
    body gave up, still runs, or crashed). *)

val crashed : t -> int -> bool

val max_point_contention : t -> int
(** The largest number of processes that were simultaneously {i active}
    (had executed at least one operation and not yet finished or
    crashed) — the point contention of the execution.  With staggered
    arrivals this can be far below [n], which is what experiment T13
    reports. *)

val total_steps : t -> int
val names : t -> int option array
val step_counts : t -> int array
val crash_count : t -> int
