(** Zero-allocation execution of {!Renaming.Machine} machines.

    The direct-style fast path for oblivious schedules: where the effects
    scheduler allocates a continuation and a waiting cell per
    shared-memory operation, this driver executes explicit integer state
    machines with no heap allocation per step — unboxed SplitMix64
    streams ({!Prng.Flat}), a flat Fisher-Yates ready array, and an
    in-place-cleared {!Location_space}.

    {b Equivalence}: with the same [seed], [n] and algorithm, {!run}
    produces a result identical field-for-field to
    [Runner.run ~adversary:Adversary.random], and {!run_sequential} to
    [Runner.run_sequential] — the per-pid coin streams, the scheduler's
    picks and the settle bookkeeping replay the effects path decision for
    decision.  {!run} draws its own schedule; any other schedule, crashes
    included, is driven from outside through the step-granular API
    below ({!step_pid}, {!crash_pid}), which takes the same step and
    crash transitions as {!run}.  The machines run with no event
    listener, and the long-lived (releasing) machines, whose
    {!Renaming.Machine.release} action only {!Renaming.Machine.drive}
    performs, are not run here.

    Handles are reusable so benchmarks can measure steady state:
    [create] preallocates everything for [(algo, n)]; each execution is
    [reset ~seed] followed by {!run} or {!run_sequential}, neither of
    which allocates; {!result} (which does allocate) extracts the
    outcome. *)

type t

val create : ?capacity:int -> algo:Renaming.Machine.t -> n:int -> unit -> t
(** Preallocate a handle for [n] processes running [algo].  Per-process
    bookkeeping is laid out structure-of-arrays over unboxed
    [Bigarray.Array1] int lanes.  [capacity] dense-preallocates the
    location space ({!Location_space.create}), so a measured run never
    grows shared-memory storage.
    @raise Invalid_argument if [n < 1]. *)

val reset : t -> seed:int -> unit
(** Re-seed and clear the handle for a fresh execution: names, step
    counts, crashes, the ready set and the location space.
    Allocation-free once the location space is warm. *)

val run : ?max_total_steps:int -> t -> unit
(** Execute under the uniformly random oblivious schedule.
    @raise Scheduler.Step_limit_exceeded past [max_total_steps]
    (default 10M), like the effects path. *)

val run_sequential : ?shuffled:bool -> t -> unit
(** Execute processes to completion one at a time, in a seeded random
    order ([shuffled], default [true]) or pid order. *)

val result : t -> Runner.result
(** Extract the outcome of the last execution, however it was driven
    ({!run}, {!run_sequential} or the step API); [point_contention] is
    the most processes active at once, [1] after {!run_sequential}.
    Allocates fresh arrays — keep outside measured loops. *)

val space : t -> Location_space.t
val total_steps : t -> int

(** {1 One-shot conveniences} *)

val run_once :
  ?max_total_steps:int ->
  seed:int ->
  n:int ->
  algo:Renaming.Machine.t ->
  unit ->
  Runner.result

val run_sequential_once :
  ?shuffled:bool ->
  seed:int ->
  n:int ->
  algo:Renaming.Machine.t ->
  unit ->
  Runner.result

(** {1 Streaming sequential execution for very large n}

    {!run_sequential} holds O(n) lanes plus an (n+1)-stream coin bank;
    fine to n ~ 10^6, wasteful at 10^8.  In unshuffled sequential order
    each process runs to completion before the next starts, so a
    streaming driver needs only O(1) per-process state: one scratch
    machine-state block, a single coin slot re-derived per pid
    ({!Prng.Flat.seed_stream}), and running aggregates.  [seq_run] is
    bit-identical to [run_sequential ~shuffled:false] with the same
    [seed]/[n]/[algo] — same coin streams, same probe sequence, same
    high-water mark — it just does not retain per-pid results.  The
    execution loop allocates nothing, preserving the 0 words/op claim
    for the large-n sweeps. *)

type seq
(** A reusable streaming handle: create once per (algo, capacity), then
    [seq_run] per trial; only creation allocates. *)

val seq_create : ?capacity:int -> algo:Renaming.Machine.t -> unit -> seq
(** [capacity] dense-preallocates the location space — recommended for
    the bounded-namespace algorithms (e.g. [2n] cells for ReBatching) so
    every probe of the measured loop is one bit of a flat bitmap (a
    single byte access) that never touches the sparse table. *)

val seq_run : seq -> seed:int -> n:int -> unit
(** Execute [n] processes in pid order; allocation-free.
    @raise Invalid_argument if [n < 1]. *)

val seq_total_steps : seq -> int
val seq_max_steps : seq -> int

val seq_named : seq -> int
(** Number of processes that finished holding a name. *)

val seq_max_name : seq -> int
(** Largest name acquired, or [-1] if none. *)

val seq_space_used : seq -> int
(** High-water mark of the space — the namespace actually consumed. *)

val seq_space : seq -> Location_space.t

(** {1 Step-granular control}

    The hooks the systematic explorer ([Analysis.Explore]) drives: the
    caller owns the schedule, naming which pid advances at each choice
    point, and can snapshot/restore the whole core around DFS branches.
    A step performed through {!step_pid} executes exactly the transition
    the sampling scheduler in {!run} would have performed had its coin
    picked that pid, so every explored trace is a genuine trace of the
    simulated system for the same per-pid coin streams.

    Usage: [reset ~seed] then {!start}, then interleave {!step_pid} /
    {!crash_pid} / {!crash_pid_after_win} / {!restart_pid} on live pids
    (those with a pending operation, enumerated by {!live_count} and
    {!live_pid}); {!result} works as usual once no pid is live. *)

val start : t -> unit
(** Run every machine up to its first pending operation (the step-wise
    counterpart of the prologue of {!run}).  Call after [reset]. *)

val live_count : t -> int
(** Number of pids with a pending operation. *)

val live_pid : t -> int -> int
(** [live_pid t i] — the [i]-th live pid, [0 <= i < live_count t].  The
    order is internal (Fisher-Yates swap array); enumerate, don't rely
    on it. *)

val pending_loc : t -> pid:int -> int
(** Location of [pid]'s pending TAS.  Meaningful only for live pids. *)

val steps_of : t -> pid:int -> int
val is_crashed : t -> pid:int -> bool

val name_of : t -> pid:int -> int option
(** The name [pid] currently holds, if any. *)

val step_pid : t -> pid:int -> unit
(** Execute [pid]'s pending TAS and advance its machine.
    @raise Invalid_argument if [pid] is not live. *)

val crash_pid : t -> pid:int -> unit
(** Fail-stop [pid] before its pending operation executes. *)

val crash_pid_after_win : t -> pid:int -> unit
(** Execute [pid]'s pending TAS — which must win — and fail-stop the
    process before it records the name: the §2 after-win slot leak.
    @raise Invalid_argument if [pid] is not live or the TAS would lose
    (callers should offer this choice point only on free locations). *)

val restart_pid : t -> pid:int -> unit
(** Re-initialise a settled, non-crashed [pid] for another acquisition
    round (long-lived renaming): clears its name and runs [init] again
    on the continuation of its coin stream.
    @raise Invalid_argument if [pid] is live or crashed. *)

type snap
(** A full structural snapshot of a handle: machine states, pending
    operations, ready set, names, step counts, crash bookkeeping, all
    SplitMix64 stream positions and the location space (O(n + hwm)). *)

val snapshot : t -> snap
val restore : t -> snap -> unit
