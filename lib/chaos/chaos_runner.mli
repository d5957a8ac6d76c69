(** Execute a {!Fault_plan} against the real multicore substrate.

    The injector is {!Shm.Domain_runner.hooks} middleware: the runner's
    hot path is untouched, and a crash is an exception raised from the
    TAS bracket — {!Fault_plan.Before_op} before the real operation runs,
    {!Fault_plan.After_win} after it returns a win, so the slot stays
    taken in shared memory while the process records no name.  The
    algorithm closure is wrapped so a crashed process simply terminates
    with no name; {!Shm.Domain_runner} needs no crash awareness.

    With [~certify:true] the injector composes {e outside} the
    {!Analysis.Hb_runner} happens-before monitor
    ({!Shm.Domain_runner.compose_hooks}), so one execution is
    simultaneously fault-injected and certified race-free — a crash
    raised before an operation never reaches the monitor, exactly as a
    fail-stop before the operation should not.

    After the run, an invariant monitor checks the loose-renaming
    safety/liveness obligations under crashes (see {!verdict}) and the
    TAS-slot conservation law: for the acquire-once algorithms in
    {!Algos} (win = name = termination),
    [slots_taken - names_assigned] must equal the number of
    after-win crashes that actually fired — every leaked slot is
    accounted to a specific injected fault.  Runs are rendered,
    recorded and audited here too (see {!render}, {!audit_dir}). *)

exception Crashed
(** Raised by the injector inside a process's TAS bracket; never escapes
    {!run}. *)

type fired = { pid : int; op : int; point : Fault_plan.crash_point }
(** A crash that actually fired: process [pid] died at its [op]-th TAS.
    An armed crash fires iff the process reaches its armed operation
    index; with [domains = 1] the fired set is exactly reproducible. *)

type verdict = {
  plan : Fault_plan.t;
  fired : fired list;  (** sorted by [pid] *)
  crashed : bool array;  (** per process: did its armed crash fire *)
  survivors : int;
  names_assigned : int;
  max_name : int;  (** [-1] if no names were assigned *)
  slots_taken : int;  (** TAS wins minus releases, counted in the bracket *)
  leaked : int;  (** [slots_taken - names_assigned] *)
  violations : string list;
      (** empty iff every invariant held.  Possible entries, in check
          order: ["survivor-progress"] (a process that never crashed
          finished without a name), ["crashed-silent"] (a crashed
          process reported a name), ["survivor-uniqueness"] (two
          survivors share a name), ["namespace-bound"] (a name is
          [>= name_bound]), ["leak-accounting"] (leaked slots do not
          match fired after-win crashes). *)
}

type outcome = {
  verdict : verdict;
  result : Shm.Domain_runner.result;
  races : Analysis.Hb.race list option;
      (** [Some races] iff the run was certified; [Some []] means the
          witnessed execution was data-race free *)
}

val ok : verdict -> bool
(** No invariant violations. *)

val run :
  ?certify:bool ->
  plan:Fault_plan.t ->
  algo:(Renaming.Env.t -> int option) ->
  unit ->
  outcome
(** Execute [plan] against [algo] on [plan.domains] domains over
    [plan.capacity] shared cells.  [algo] must be a fresh instance built
    for [plan.procs] processes — use {!run_plan} to construct it from
    [plan.algo].  [certify] (default [false]) runs the happens-before
    monitor over the same execution. *)

val run_plan : ?certify:bool -> Fault_plan.t -> (outcome, string) result
(** {!run} with the algorithm built by {!Algos.find} from [plan.algo].
    [Error] if the algorithm name is unknown or the plan's recorded
    capacity does not match the constructed instance (a corrupted or
    hand-edited plan that would silently run a different experiment). *)

(** {1 Verdict artifact}

    The verdict serializes to canonical JSON with only deterministic
    fields (no wall-clock time), so at [domains = 1] two runs of the
    same plan produce byte-identical artifacts. *)

val verdict_to_json : verdict -> string

val clean : outcome -> bool
(** {!ok}, and no race when certified: exit 0 of [chaos run|soak|replay]. *)

val render : json:bool -> outcome -> string
(** One run's report, no trailing newline: {!verdict_to_json}, or the
    counts line, the happens-before result and the invariant line. *)

val render_soak : json:bool -> runs:int -> (int * outcome) list -> string
(** The summary of [runs] soak runs whose failures are [(seed, outcome)]. *)

val record : dir:string -> outcome -> unit
(** Write the run's plan ({!Fault_plan.file}) and its verdict
    ([chaos_verdict_<seed>.json]) into the existing directory [dir]. *)

val audit_dir :
  string -> [ `Info of string | `Note of string | `Problem of string ] list
(** [doctor]'s lines for every [chaos_plan_*.json], then every
    [chaos_verdict_*.json], in name order: an unreadable or
    non-canonical plan, an unreadable verdict and a recorded violation
    are problems; a verdict whose seed no parsed plan carries (not
    replayable) is a note. *)
