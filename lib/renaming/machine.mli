(** Renaming algorithms as integer state machines, and their driver.

    Every algorithm in this library and in [Baselines] has exactly one
    body: a {!t}.  Its per-process control state lives in a
    caller-provided flat [int array] ([slots] ints per process), its
    coins come through {!io.draw}, and each transition returns the next
    shared-memory action as a plain int.  The same machine runs on every
    substrate:

    - {!drive} runs it against an {!Env.t}, which is what every
      [get_name] is: the effects scheduler ([Sim.Runner]), real atomics
      ([Shm], [Chaos]) and the [renamed] daemon's shards all go through
      it;
    - [Sim.Fast_core] runs it with no heap allocation per step, over an
      unboxed {!Prng.Flat} coin bank;
    - the systematic explorer ([Analysis.Explore]) runs it one step at a
      time with injected draws.

    Given the per-pid streams [Splitmix.split_at root pid], a machine
    draws and probes identically whichever driver runs it, so the
    substrates agree on names, step counts and space used.  The
    test suite checks each machine against an independent
    closure transcription of the paper's pseudocode.

    {b Action encoding}: [a >= 0] — perform TAS on location [a] and call
    [resume] with the outcome; [a = -1] — the process finished without a
    name; {!release} — reset the location held in the last slot of the
    process's block, then call [resume] with that location and [false];
    any other [a <= -2] — finished with name [-2 - a] (see
    {!name_of_action}).  Only the long-lived adaptive machines request
    releases, and only {!drive} performs them. *)

type io = {
  draw : int -> int -> int;
      (** [draw pid bound] is uniform on [0, bound): the machines' only
          source of randomness.  Keeping it injectable lets the
          explorer substitute recorded or enumerated draws. *)
  emit : (Events.t -> unit) option;
      (** [Some f]: each event of the process is passed to [f].
          [None]: nobody listens, and the machine builds no event — a
          machine matches on [emit] at each emission site, so the
          unobserved step path neither allocates nor calls out. *)
}

val flat : Prng.Flat.t -> io
(** [flat bank] draws from stream [pid] of [bank] — bit-identical to
    [Splitmix.int] on the stream [Splitmix.split_at root pid] — and
    emits nothing. *)

val fixed : (int -> int -> int) -> io
(** Wrap an arbitrary draw function (draw enumeration, one-slot banks);
    emits nothing.  The function receives [pid] and [bound] and must
    return a value in [0, bound). *)

type t = {
  label : string;
  slots : int;  (** ints of per-process state the driver must provide *)
  init : int array -> int -> io -> int -> int;
      (** [init st off io pid]: first action; state in
          [st.(off .. off+slots-1)] *)
  resume : int array -> int -> io -> int -> int -> bool -> int;
      (** [resume st off io pid loc won]: next action after the TAS on
          [loc] returned [won] (or after the release of [loc]) *)
}

val slots : t -> int

val finished_none : int
(** The "finished without a name" action ([-1]). *)

val finished : int -> int
(** [finished u] — the "finished with name [u]" action ([-2 - u]). *)

val release : int
(** The "reset the location in my last slot" action ([min_int]). *)

val name_of_action : int -> int option
(** The name carried by a finish action, if any. *)

val drive : t -> Env.t -> int option
(** [drive m env] runs one acquisition of [m] for process [env.pid]:
    draws through [env.random_int], takes TAS steps through [env.tas],
    resets through [env.reset], and emits events through [env.emit]
    when [env.observed].  Returns the name won, or [None] when the
    machine gives up.  Allocates the process's state block once per
    call and nothing per step. *)
