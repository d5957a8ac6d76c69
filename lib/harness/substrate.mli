(** Execution substrates: one renaming algorithm, three ways to execute
    it.

    - {!Fast} — the zero-allocation core ([Sim.Fast_core] running the
      algorithm's [Renaming.Machine]).  Only oblivious schedules
      (uniformly random or sequential) are expressible, which is exactly
      what the headline tables use; in exchange a run is several times
      faster and allocation-free, so large sweeps stop being GC-bound.
    - {!Effects} — the same machine under [Renaming.Machine.drive],
      suspended per operation by the effects scheduler.  Required for
      adaptive adversaries, crash injection via [Sim.Adversary], and
      event tracing.
    - {!Atomic} — real [bool Atomic.t] cells ([Shm.Atomic_space]) driven
      sequentially; the sanity check that the simulated TAS matches
      genuine hardware atomics.

    The three substrates consume identical per-pid SplitMix64 streams, so
    on the schedules they share they produce {e identical} results
    field for field — pinned by the cross-substrate equivalence suite in
    [test/test_fast_core.ml], whose reference side is an independent
    closure transcription of each algorithm.  The oblivious experiments
    therefore run on {!Fast}. *)

type t = Fast | Effects | Atomic

(** {1 Algorithm specs}

    A {!spec} is one algorithm instance — its machine — plus the
    location capacity the atomic substrate must preallocate. *)

type spec

val label : spec -> string

val closure : spec -> Renaming.Env.t -> int option
(** [Renaming.Machine.drive] of the machine, for drivers that need
    bespoke runner options (adversaries, crash injection, event hooks)
    and therefore call [Sim.Runner] directly. *)

val fast_algo : spec -> Renaming.Machine.t
(** The machine, for drivers that manage a reusable [Sim.Fast_core]
    handle themselves (the benchmark harness). *)

val capacity : spec -> int
(** Locations the atomic substrate preallocates for this instance. *)

val rebatching : ?backup:bool -> Renaming.Rebatching.t -> spec

val adaptive : Renaming.Object_space.t -> spec
val fast_adaptive : Renaming.Object_space.t -> spec
val uniform : m:int -> max_steps:int -> spec
val linear_scan : m:int -> spec
val cyclic_scan : m:int -> spec
val adaptive_doubling : ?probes_per_level:int -> Renaming.Object_space.t -> spec

(** {1 Execution} *)

val run_sequential :
  ?shuffled:bool -> t -> spec -> seed:int -> n:int -> unit -> Sim.Runner.result
(** One process at a time, in seeded random order ([shuffled], default
    [true]); equals [Sim.Runner.run_sequential] on every substrate. *)

val run :
  ?max_total_steps:int ->
  t ->
  spec ->
  seed:int ->
  n:int ->
  unit ->
  Sim.Runner.result
(** Concurrent execution under the uniformly random oblivious schedule;
    equals [Sim.Runner.run ~adversary:Adversary.random].
    @raise Invalid_argument on {!Atomic}, which is sequential-only.
    @raise Scheduler.Step_limit_exceeded past [max_total_steps]. *)
