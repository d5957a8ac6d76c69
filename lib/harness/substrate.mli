(** The algorithm table: each renaming algorithm instance as its
    {!Renaming.Machine.t} plus the location capacity a fixed-size space
    must hold for it.

    A spec runs on every substrate through its machine:
    [Sim.Fast_core] runs it allocation-free under oblivious schedules
    (the headline sweeps), [Renaming.Machine.drive] of it is the
    [get_name] closure that the effects scheduler ([Sim.Runner]:
    adversaries, crashes, event tracing) and real atomics
    ([Shm.Domain_runner], over an [Shm.Atomic_space] of {!capacity}
    cells) execute.  The substrates consume identical per-pid
    SplitMix64 streams, so on the schedules they share they produce
    identical results — pinned by [test/test_fast_core.ml] against the
    independent closure transcriptions of each algorithm. *)

type spec

val fast_algo : spec -> Renaming.Machine.t
(** The machine. *)

val capacity : spec -> int
(** Locations a fixed-size space ([Shm.Atomic_space], a dense
    [Sim.Location_space] prefix) preallocates for this instance. *)

val rebatching : ?backup:bool -> Renaming.Rebatching.t -> spec

val adaptive : Renaming.Object_space.t -> spec
(** Capacity {!Renaming.Object_space.ladder_capacity}, as for the other
    two adaptive specs. *)

val fast_adaptive : Renaming.Object_space.t -> spec
val uniform : m:int -> max_steps:int -> spec
val linear_scan : m:int -> spec
val cyclic_scan : m:int -> spec
val adaptive_doubling : ?probes_per_level:int -> Renaming.Object_space.t -> spec
