(** Systematic exploration (stateless model checking) of small
    configurations.

    Enumerates {e every} schedule of a finite transition system — a
    {!world} — by snapshot/restore depth-first search pruned with
    Godefroid-style sleep sets, checking invariants at every transition
    and terminal state.  The sampled checkers elsewhere in the tree
    (QCheck cross-substrate, chaos soaks, the [Hb] race certifier)
    certify single executions; this engine certifies the whole schedule
    space of configurations up to ~4 processes, crash points included.

    {b Soundness.} Sleep sets prune only interleavings Mazurkiewicz-
    equivalent (commutation of independent actions) to already-explored
    ones, so every reachable state is still visited; all checked
    properties are state predicates.  Independence comes from action
    {e footprints} (same reasoning as the vector-clock [Hb] checker):
    [-2] process-local, [-1] global, [l >= 0] touches TAS location [l].
    No state caching is performed — sleep sets plus state caching is
    unsound without sleep-set-aware cache keys.  [explore ~sleep_sets:
    false] runs the unpruned DFS; the test suite cross-checks the two
    verdicts and schedule counts on tiny worlds.

    Violations are minimized by greedy deletion plus context-switch
    reduction ({!minimize}) and serialized as canonical byte-replayable
    JSON fixtures ({!fixture}) consumed by [repro_cli modelcheck
    --replay] and audited by [repro_cli doctor]. *)

(** {1 Worlds} *)

type action = {
  pid : int;
  tag : int;  (** action kind, unique per (pid, state) *)
  label : string;
  footprint : int;  (** -2 local, -1 global, [l >= 0] TAS location *)
}

type world = {
  w_label : string;
  nprocs : int;
  enabled : unit -> action list;
      (** enabled actions in a deterministic order; [[]] = terminal *)
  apply : action -> string option;
      (** perform; [Some msg] reports an invariant violation *)
  at_end : unit -> string option;  (** terminal-state check *)
  save : unit -> unit -> unit;  (** snapshot; returns the restore thunk *)
  reset : unit -> unit;
}

val independent : action -> action -> bool

(** {1 Exploration} *)

type stats = {
  schedules : int;  (** maximal schedules fully explored *)
  transitions : int;
  max_depth : int;
  sleep_pruned : int;
  complete : bool;  (** [false] iff a budget stopped the search *)
}

type violation = { schedule : action list; message : string }
type outcome = { stats : stats; violation : violation option }

val explore :
  ?sleep_sets:bool ->
  ?max_transitions:int ->
  ?max_schedules:int ->
  world ->
  outcome
(** Exhaustive DFS from the initial state ([world.reset] is called
    first).  Returns on the first violation found or when the space (or
    a budget) is exhausted. *)

val replay : world -> (int * int) list -> (violation option, string) result
(** Strict replay of a [(pid, tag)] schedule: every entry must be
    enabled in sequence ([Error] otherwise).  [Ok (Some v)] — a
    violation fired during the schedule or at its terminal state. *)

val minimize : world -> violation -> violation
(** Shrink a violating schedule: greedy entry deletion, then
    context-switch reduction; the result replays to a violation (not
    necessarily the identical message — any invariant breach keeps a
    candidate). *)

(** {1 Counterexample fixtures} *)

type fixture = {
  fx_model : string;  (** "rebatching", "longlived", "lease" *)
  fx_mutation : string option;
  fx_violation : string;
  fx_params : (string * Jsonu.t) list;
  fx_schedule : (int * int * string) list;  (** pid, tag, label *)
}

val fixture_to_json : fixture -> Jsonu.t
val fixture_to_string : fixture -> string
(** Canonical bytes (no trailing newline): [fixture_of_string] of the
    result re-reads the fixture exactly. *)

val fixture_of_string : string -> (fixture, string) result

val audit_fixture : string -> (fixture, string) result
(** Parse + schema check + canonical-form (byte re-encode) check, for
    artifact audits.  Replayability is checked separately against the
    model's world ({!replay}). *)

(** {1 Renaming worlds}

    {!Renaming.Machine} machines driven step-granularly through
    {!Sim.Fast_core}: every interleaving of TAS steps, plus crash points
    (before-op and after-win leaks, as in [Chaos.Fault_plan]) under a
    crash budget, for one-shot ([rounds = 1]) or long-lived
    ([rounds > 1], with release actions and a {!Linz} linearizability
    check of the acquire/release history at every terminal state).
    Checked invariants: name uniqueness, the [m = (1+eps) n] namespace
    bound, lock-freedom (per-process op budget), completion, and
    linearizability. *)

type renaming_config = {
  algo : string;  (** only ["rebatching"] *)
  procs : int;
  seed : int;  (** per-pid coin streams, as in [Fast_core.reset] *)
  t0 : int;
  crashes : int;  (** total crash-point budget *)
  rounds : int;
  step_budget : int;
  mutation : string option;
}

val default_renaming : renaming_config
(** n=3, seed 1, t0=3, one crash budget, one-shot. *)

val renaming_mutations : string list
(** Seeded bugs for conviction tests: ["claim-on-lose"] (uniqueness),
    ["probe-out-of-range"] (namespace bound), ["spin"] (lock-freedom).
    All afflict pid 0 only, keeping counterexamples small. *)

val renaming_world :
  ?on_terminal:(int option array -> unit) ->
  renaming_config ->
  (world, string) result
(** [on_terminal] observes the name assignment at every maximal schedule
    (used by the sampled-vs-exhaustive cross-validation property). *)

val renaming_fixture : renaming_config -> violation -> fixture
val renaming_world_of_fixture : fixture -> (world, string) result
