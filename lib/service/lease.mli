(** Lease-based ownership of granted names.

    Every grant the server makes is paired with a lease: a TTL-bounded
    claim tagged with a {e monotonic epoch}.  Clients keep their claims
    alive with the [renew] heartbeat; an expiry sweep reclaims names
    whose holders went silent while still connected — the failure mode
    the held-name ledger alone cannot see.

    The epoch is the tie-breaker for every renew-vs-expiry race at the
    TTL boundary: a release (or an idempotent-acquire token match) is
    honoured only if it carries the epoch of the {e current} lease on
    that name.  Once a lease expires and the name is re-granted, the
    new lease has a strictly larger epoch, so the stale holder's
    release is rejected ([`Stale]) and its request token no longer
    matches — a stale holder can never free or steal a reissued name.

    Time never flows implicitly: every operation that touches a clock
    takes [now] explicitly, which keeps the structure a pure function
    of its inputs and lets the QCheck race property drive the TTL
    boundary deterministically.  All operations are single-domain (the
    server's serving domain owns the table). *)

type t

val create : ttl_s:float -> unit -> t
(** [ttl_s] is clamped below at 1 ms. *)

val ttl_s : t -> float
val ttl_ms : t -> int

(** {1 Granting and restoring} *)

val grant : t -> now:float -> name:int -> holder:int option -> token:int -> int
(** Lease [name] to [holder] (a connection id; [None] marks an orphan
    whose owner is unknown, e.g. a crash-recovered grant) until
    [now + ttl].  [token <> 0] binds the client's idempotency token to
    this lease.  Returns the lease's epoch — strictly larger than every
    epoch handed out before, across the table's lifetime. *)

val restore : t -> now:float -> name:int -> epoch:int -> token:int -> unit
(** Recovery path: re-install a journaled lease {e keeping its original
    epoch} (so surviving clients' epochs and tokens still match), as an
    orphan with a fresh TTL.  Bumps the epoch counter past [epoch]. *)

val set_next_epoch : t -> int -> unit
(** Continue the monotonic epoch sequence from a journal replay. *)

(** {1 The race-resolving operations} *)

val renew : t -> now:float -> holder:int -> int
(** Extend every lease [holder] currently holds to [now + ttl]; returns
    how many.  A lease past its TTL but not yet swept is still
    renewable — it is the {e sweep}, not the clock, that kills it. *)

val release : t -> name:int -> epoch:int -> [ `Released | `Stale | `Unknown ]
(** [`Released] — epoch matched, lease (and token binding) removed.
    [`Stale] — [name] is leased, but under a different (newer) epoch:
    the caller's claim died and the name was reissued; nothing changes.
    [`Unknown] — no lease on [name]. *)

val expire_due : t -> now:float -> (int * int * int option * int) list
(** Remove and return every lease whose TTL has passed, as
    [(name, epoch, holder, token)] sorted by name.  Token bindings die
    with their leases, so an expired holder's retry token can never
    match a reissued name. *)

val rebind : t -> now:float -> name:int -> epoch:int -> holder:int -> bool
(** Idempotent-acquire dedup: re-attach the lease on [name] (which must
    still carry [epoch]) to [holder] and refresh its TTL.  False if the
    lease is gone or reissued — the retry must be a fresh acquire. *)

val find_token : t -> token:int -> (int * int) option
(** The live [(name, epoch)] a nonzero token is bound to, if its lease
    still stands. *)

(** {1 Inspection} *)

val epoch_of : t -> name:int -> int option
val holder_of : t -> name:int -> int option option
(** [None] — not leased; [Some None] — orphan; [Some (Some c)] — held
    by connection [c]. *)

val expires_of : t -> name:int -> float option
val held : t -> int
(** live leases *)

val names_of_holder : t -> holder:int -> int list
(** sorted *)

(** {1 Snapshots}

    Deep-copy save/restore so the model checker ({!Lease_model} driven
    by [Analysis.Explore]) can rewind the table around DFS branches.
    O(live leases); the TTL is part of the handle, not the snapshot. *)

type snapshot

val snapshot : t -> snapshot
val restore_snapshot : t -> snapshot -> unit
