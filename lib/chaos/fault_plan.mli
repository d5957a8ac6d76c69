(** Deterministic fault plans for the multicore substrate.

    A plan is a pure function of [(seed, procs, domains)] plus the knobs
    below: which logical processes fail-stop, at which of their own
    shared-memory operations, and on which side of the operation; and
    which processes get bounded delay injected to widen the interleavings
    the memory system explores.  Because the plan is data — not decisions
    taken at run time — the same seed always arms the same faults at the
    same per-process operation indices, any failing run can be recorded
    to JSON and committed as a regression fixture, and
    {!Chaos_runner.run} can replay it on real hardware at will.

    Crash semantics follow the paper's model (§2): a process may
    fail-stop at {e any} step, including the nastiest linearization
    point — after winning a test-and-set but before recording the name,
    so the slot leaks (cf. Giakkoupis–Woelfel's crash-at-any-point TAS
    regime in PAPERS.md).  Operation indices are counted per process
    (1-based, over that process's own TAS calls), so arming does not
    depend on the global interleaving.  Whether an armed crash
    {e fires} can: a process scheduled to crash before its [k]-th
    operation survives if it terminates in fewer — with [domains = 1]
    the execution is sequential and firing is exactly reproducible;
    with more domains the armed schedule and the invariant verdict are
    stable while the fired subset may vary with the memory system.
    Recorded plans are named, recognised and read here ({!file}). *)

type crash_point =
  | Before_op  (** fail-stop immediately before the armed operation *)
  | After_win
      (** fail-stop immediately after the first TAS {e win} at or after
          the armed operation — the won slot leaks: it is taken in
          shared memory but no surviving process carries its name *)

type crash = {
  pid : int;
  op : int;  (** 1-based per-process operation index the crash arms at *)
  point : crash_point;
}

type pause = {
  pid : int;
  op : int;  (** 1-based per-process operation index the delay fires at *)
  spins : int;  (** bounded busy-wait iterations ([Domain.cpu_relax]) *)
}

type t = {
  seed : int;
  procs : int;
  domains : int;
  algo : string;
      (** algorithm name, opaque to this module; {!Algos.find} interprets
          it when the plan is run or replayed *)
  capacity : int;  (** TAS cells allocated for the run *)
  name_bound : int;
      (** the namespace invariant: every assigned name must be
          [< name_bound] (defaults to [capacity]); a deliberately small
          bound makes a committable broken-invariant fixture *)
  crash_frac : float;  (** fraction of processes armed with a crash *)
  pause_frac : float;  (** fraction of processes armed with a delay *)
  max_spins : int;  (** upper bound on any pause's spin count *)
  crashes : crash list;  (** sorted by [pid], at most one per process *)
  pauses : pause list;  (** sorted by [pid], at most one per process *)
}

val make :
  seed:int ->
  procs:int ->
  ?domains:int ->
  algo:string ->
  capacity:int ->
  ?name_bound:int ->
  ?crash_frac:float ->
  ?pause_frac:float ->
  ?max_spins:int ->
  unit ->
  t
(** Derive a plan.  The derivation draws from a SplitMix64 stream that
    is disjoint from every per-process coin stream the runner will use,
    so arming faults never perturbs the algorithms' randomness.
    Defaults: [domains] the runner's host cap
    ({!Shm.Domain_runner.default_domains}), [name_bound = capacity],
    [crash_frac = 0.], [pause_frac = 0.], [max_spins = 512].

    [floor (crash_frac *. procs)] distinct processes are armed with a
    crash: the crash point is a fair coin between {!Before_op} and
    {!After_win}, and the armed operation index is uniform on [1..3] —
    early enough to fire in almost every execution, late enough to
    exercise mid-protocol state.  [floor (pause_frac *. procs)]
    processes (drawn independently; overlap with crashers is allowed)
    get a pause of [1..max_spins] spins at operation [1..4].

    @raise Invalid_argument if [procs < 1], [domains < 1],
    [capacity < 1], [name_bound < 1], a fraction is outside [0, 1], or
    [max_spins < 1]. *)

val crash_for : t -> int -> crash option
(** The crash armed for process [pid], if any. *)

val pause_for : t -> int -> pause option

val equal : t -> t -> bool

(** {1 Record / replay}

    Plans serialize to one canonical JSON form: [to_json] is a pure
    function of the plan with a fixed field order, so
    [to_json (of_json_exn (to_json p)) = to_json p] byte for byte —
    the property `repro_cli chaos replay` and the QCheck suite pin. *)

val point_to_string : crash_point -> string
(** ["before-op"] / ["after-win"] — the lexemes used in plan and verdict
    JSON. *)

val to_json : t -> string

val of_json : string -> (t, string) result
(** Parses a plan recorded by {!to_json} (whitespace-tolerant, field
    order free).  [Error] names the offending field or structural
    problem. *)

val save : file:string -> t -> unit
(** Write [to_json] plus a trailing newline to [file]. *)

val load : file:string -> (t * [ `Canonical | `Edited ], string) result
(** Read a plan, and whether the file holds exactly its [to_json]
    (whitespace aside): the rule of [chaos replay]'s warning and doctor. *)

val file : seed:int -> string
(** [chaos_plan_<seed>.json], the name [chaos run --out] records under. *)

val is_file : string -> bool
(** The basename is [chaos_plan_*.json]: what [doctor] audits as a plan. *)
