(** The ReBatching algorithm (paper §4, Figure 1).

    ReBatching solves non-adaptive loose renaming for [n] processes into a
    namespace of size [m = ceil ((1+eps) n)] built from [m] test-and-set
    objects, with individual step complexity [log log n + O(1)] w.h.p.
    against a strong adaptive adversary (Theorem 4.1).

    The [m] TAS objects are split into batches [B_0 .. B_kappa] with
    [kappa = ceil (log log n)], [|B_0| = ceil (eps n)] and
    [|B_i| = ceil (n / 2^i)].  A process probes [t_i] uniformly random
    objects in each batch in order ([t_0 = ceil (17 ln (8e/eps) / eps)],
    [t_i = 1] in the middle, [t_kappa = beta]), keeping the first name it
    wins; a process that fails everywhere falls back to a sequential scan
    of all [m] objects (executed with probability [<= 1/n^(beta-o(1))]).

    An instance is a pure description (geometry + probe schedule); all
    shared state lives behind {!Env.t.tas}.  The same instance value can
    therefore be shared by any number of processes on any substrate.

    For the adaptive algorithms (§5) an instance can be relocated to a
    [base] offset in the global location space, and its batch layout
    ({!batch_size}, {!batch_offset}, {!probe_budget}) read by their
    machines. *)

type t
(** An immutable ReBatching instance description. *)

val default_beta : int
(** Default number of probes on the last batch ([beta = 3], the smallest
    value for which Theorem 4.1 gives O(n) expected total steps). *)

val t0_formula : float -> int
(** [t0_formula eps] is the paper's probe budget for batch 0:
    [ceil (17 ln (8e/eps) / eps)].  @raise Invalid_argument if
    [eps <= 0]. *)

val make :
  ?epsilon:float ->
  ?t0:int ->
  ?beta:int ->
  ?base:int ->
  ?obj:int ->
  n:int ->
  unit ->
  t
(** [make ~n ()] builds an instance for up to [n] processes ([n >= 1]).

    - [epsilon] (default [1.0]): namespace slack; [m = ceil ((1+eps) n)].
    - [t0]: override the batch-0 probe budget (the paper's constant
      [t0_formula eps] is large; experiments T10 ablate it).  Default is
      the paper's formula.
    - [beta] (default {!default_beta}): probes on the last batch.
    - [base] (default 0): global location index of this instance's first
      TAS object; names are global, i.e. in [base, base + m).
    - [obj] (default 0): object index reported in instrumentation events.

    @raise Invalid_argument if [n < 1], [epsilon <= 0], [t0 < 1] or
    [beta < 1]. *)

val n : t -> int
val epsilon : t -> float
val base : t -> int

val obj : t -> int
(** The object index this instance reports in its events. *)

val size : t -> int
(** [size t] is [m], the number of TAS objects = namespace size. *)

val kappa : t -> int
(** Index of the last batch. *)

val batch_count : t -> int
(** [kappa t + 1]. *)

val batch_size : t -> int -> int
(** [batch_size t i] is [|B_i|].  @raise Invalid_argument if [i] is not in
    [0, kappa]. *)

val batch_offset : t -> int -> int
(** [batch_offset t i] is the global location index of the first object of
    [B_i]. *)

val probe_budget : t -> int -> int
(** [probe_budget t i] is [t_i], the number of probes a process performs
    on batch [i]. *)

val owns_name : t -> int -> bool
(** [owns_name t u] tests whether global name [u] lies in this instance's
    namespace [base, base + m) — the "[u ∈ R_i]" test of §5. *)

val machine : ?backup:bool -> t -> Machine.t
(** [machine t] is Figure 1 as a {!Machine.t}: try batches [0 .. kappa]
    in order, [probe_budget t i] uniform probes each
    ([TryGetName(i)]), then — if [backup] (default [true]) — scan all
    [m] objects sequentially.  Events: a [Probe] per TAS (batch [-1] in
    the backup scan), [Name_acquired] on the win, [Batch_failed] after
    each exhausted batch, [Backup_entered] on entering the scan; all
    with [obj] = this instance's object index.  Built once per
    instance. *)

val get_name : ?backup:bool -> Env.t -> t -> int option
(** [get_name env t] is [GetName()] of Figure 1: {!Machine.drive} of
    {!machine}.  Returns [None] only if every object is already taken
    (impossible when at most [n] processes participate and backup is
    enabled, hence Figure 1's unreachable [return -1]).

    With [~backup:false], [None] means "this object is too contended,
    move on" — the building block of the adaptive algorithms of §5. *)
