(** Adversarial schedulers.

    The paper's bounds are proved against a *strong adaptive* adversary
    (sees all process state, including coin-flip outcomes, before every
    scheduling decision) and the lower bound is realized by a weaker
    *oblivious* layered adversary.  This module provides both, plus
    neutral schedules, behind one incremental-callback interface so that
    a strategy pays O(1) amortized bookkeeping per simulated step.

    Protocol, driven by the scheduler:
    + [on_wait ~pid ~loc ~op] — [pid] is now suspended with a pending
      operation of kind [op] on index [loc] (fires when the process first
      blocks and after every resumed step that blocks again).  Because
      the pending operation is revealed, a strategy reading it has
      exactly the strong adversary's knowledge: the process's next coin
      flip has already been resolved into [loc].
    + [on_tas ~loc ~won] — a scheduled TAS just executed.
    + [on_settle ~pid] — [pid] finished or crashed; it will never wait
      again.
    + [pick ()] — choose the next action.  Called only while at least one
      process is waiting; must return a currently waiting pid.

    An oblivious strategy simply ignores the information in [on_wait]'s
    [loc] and in [on_tas]. *)

type action =
  | Step of int  (** execute the pending operation of this waiting pid *)
  | Crash of int
      (** crash this waiting pid: it takes no further steps (§2's
          crash-failure model) *)

(** The kind of a pending shared-memory operation; a strong adversary
    sees it (together with the target index) when deciding the
    schedule.  [Read_op]/[Write_op] target the register index space
    ({!Register_space}), the other two the TAS location space. *)
type op = Tas_op | Reset_op | Read_op | Write_op

type callbacks = {
  on_wait : pid:int -> loc:int -> op:op -> unit;
  on_tas : loc:int -> won:bool -> unit;
  on_settle : pid:int -> unit;
  pick : unit -> action;
}

type ctx = {
  procs : int;  (** the number of processes: every pid is below it *)
  rng : Prng.Splitmix.t;  (** the strategy's private randomness *)
  location_taken : int -> bool;  (** read access to the TAS locations *)
  register_value : int -> int;  (** read access to the shared registers *)
}

type t = {
  name : string;
  make : ctx -> callbacks;  (** fresh per-run state *)
}

val random : t
(** Uniformly random waiting process each step — the neutral schedule used
    by the headline experiments. *)

val round_robin : t
(** Cycles through waiting processes in pid order; a maximally fair,
    deterministic schedule. *)

val layered : t
(** The oblivious layered schedule of §6: repeatedly take a uniformly
    random permutation of the currently waiting processes and step each
    once.  Does not read locations or outcomes. *)

val greedy_collision : t
(** A strong adaptive strategy that maximizes failed probes greedily:
    (1) step any process whose pending location is already taken (it must
    lose); (2) otherwise pick a location targeted by the most waiting
    processes and step one of them (the win turns the rest into losers);
    (3) otherwise step a random process.

    Cost: O(1) amortised per callback, and O([procs]) words allocated
    once per run.  Per-pid state and the groups of processes pending on
    one location live in int arrays sized from [ctx.procs]; the one map
    is an int-keyed open-addressing table from location to group
    (locations reach ~1.3e10 in adaptive runs, so it cannot be an
    array).  Its decisions and rng draws are those of the earlier
    [Hashtbl]-backed version, which [test/test_sim.ml] keeps as a
    differential reference. *)

val sequential : t
(** Runs process 0 to completion, then process 1, etc. — the
    solo-execution schedule; useful as an extreme contention-free
    ordering. *)

val with_crashes : fraction:float -> t -> t
(** [with_crashes ~fraction strat] wraps [strat]: before each of [strat]'s
    decisions, with small probability it instead crashes a random waiting
    process, until [fraction] of all processes ever seen have been
    crashed.  Models the adversary's crash power (any number of crash
    failures, §2). *)

val by_name : string -> t option
(** Look up a built-in strategy: ["random"], ["round-robin"], ["layered"],
    ["greedy"], ["sequential"]. *)

val all_builtin : t list
