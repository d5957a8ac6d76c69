(** The daemon's name pool: per-domain shards of long-lived ReBatching
    over one real {!Shm.Atomic_space}.

    Each shard is a {!Renaming.Long_lived} instance (ReBatching with
    release, paper §4 + the Helmi–Higham–Woelfel long-lived extension)
    relocated to its own window of a single shared atomic location
    space: shard [s] owns global names [s*m, (s+1)*m) where [m] is the
    per-shard namespace.  Acquires route to a shard by client id and
    run the genuine O(log log n) probe sequence against hardware
    atomics; a release is one atomic reset of the name's cell.

    Concurrency contract: calls to {!acquire} for one shard [s] must
    not overlap (the per-shard SplitMix coin stream is single-owner
    state); {!release}, the counters and {!taken_count} are atomic and
    safe from any domain.  Nothing enforces the ownership rule here —
    {!Server} satisfies it by construction, serving every shard from
    its one serving domain.

    Leak accounting mirrors the chaos invariant monitor's conservation
    law ({!Chaos.Chaos_runner}): [taken_count] minus the names the
    sessions collectively hold must be zero — every taken cell is a
    name somebody holds, every release returns exactly one cell. *)

type t

val create :
  ?epsilon:float -> ?t0:int -> shards:int -> capacity:int -> seed:int -> unit -> t
(** [create ~shards ~capacity ~seed ()] builds [shards] shards, each
    sized for [capacity] concurrent holders (per-shard namespace
    [m = ceil ((1+epsilon) * capacity)]).  [t0] defaults to 3, the
    repository's practical batch-0 probe budget (T10 ablation), not the
    paper's large constant.
    @raise Invalid_argument if [shards < 1] or [capacity < 1]. *)

val shards : t -> int
val capacity : t -> int
(** per-shard concurrent-holder bound *)

val per_shard_namespace : t -> int
(** [m] *)

val namespace : t -> int
(** [shards * m]; all names are below this *)

val shard_of_client : t -> int -> int
(** Deterministic client→shard routing (SplitMix-diffused, so adjacent
    client ids spread across shards). *)

val shard_of_name : t -> int -> int option
(** [None] if the name is outside the pool's namespace. *)

val acquire : t -> shard:int -> client:int -> int option
(** One long-lived acquisition on [shard]; the returned name is global.
    [None] when the shard's namespace is exhausted (overload) — the
    caller maps this to {!Wire.err_capacity}.  Calls for one shard
    must not overlap. *)

val retake : t -> name:int -> [ `Taken | `Already | `Outside ]
(** Recovery path: re-occupy [name]'s cell directly (one TAS), bypassing
    the probe machinery — the name was already won once; replaying its
    journaled grant only needs the occupancy bit back so post-restart
    probes walk around it.  [`Already] means the cell was somehow taken
    (double-grant evidence for the caller to count), [`Outside] that the
    name does not fit this pool's geometry. *)

val release : t -> name:int -> unit
(** Return [name]'s cell to the pool (one atomic reset).  The caller
    (the server loop) must have validated ownership against the
    session ledger.  @raise Invalid_argument if [name] is outside the
    namespace. *)

(** {1 Counters and accounting} *)

val acquires : t -> int
(** successful acquires, all shards *)

val releases : t -> int
val failures : t -> int
(** acquires that returned [None] *)

val probes : t -> int
(** total TAS operations *)

val taken_count : t -> int
(** Cells currently taken across the whole space (O(namespace) scan). *)

val leaked : t -> held:int -> int
(** [leaked t ~held] is [taken_count t - held]: the slot-conservation
    residue given that sessions collectively hold [held] names.  Zero
    on a healthy server; positive means leaked cells. *)

val stats : t -> Jsonu.t
(** Canonical stats object: pool geometry, totals and per-shard
    counters.  Served to clients by {!Wire.Stats_reply}. *)
