(** The simulated shared memory: an unbounded array of test-and-set
    objects.

    Locations are addressed by non-negative integers and start free; the
    first [tas] on a location wins it, every later one loses — the
    hardware TAS semantics the paper assumes (§2).  The space grows on
    demand, which is what lets the adaptive algorithms use the notionally
    unbounded collection [R_1, R_2, ...] without preallocation.

    The space also keeps global counters (probes, wins, high-water mark)
    used by the experiments to report space consumption against the
    paper's [O(n)]-space claims. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] is an all-free space.  [capacity] (default 0) commits a
    dense bitmap, one bit per location, for locations [0..capacity-1]
    (⌈capacity/8⌉ bytes) — the preallocated large-n mode: probes below
    the boundary never grow or allocate backing storage, so a measured
    sweep is regrow-free.
    Locations at or above [capacity] fall back to a sparse hash table of
    32-cell bitmap blocks, filled on demand as an unbounded space
    requires: a far probe costs one table slot (two words), not a
    zero-filled page. *)

val preallocate : t -> capacity:int -> unit
(** [preallocate t ~capacity] widens the dense bitmap to [capacity]
    cells (no-op if already that wide), preserving the taken/free state
    of every location: the old bytes are copied and the taken sparse
    cells now below [capacity] move into the bitmap.  Call outside
    measured loops. *)

val tas : t -> int -> bool
(** [tas t loc] wins (returns [true]) iff [loc] was free; afterwards [loc]
    is taken.  @raise Invalid_argument on negative [loc]. *)

val release : t -> int -> unit
(** [release t loc] frees a taken location (no-op if already free) —
    the reset operation long-lived renaming needs to return a name to
    the pool.  One shared-memory step, like [tas].  Releasing a sparse
    location that was never probed allocates nothing. *)

val is_taken : t -> int -> bool
(** Read-only inspection (used by adversaries and assertions, not by
    algorithms — the model has no read operation).  Allocates nothing. *)

val reset : t -> unit
(** Frees every location, zeroes the counters and drops the sparse
    table. *)

val clear : t -> unit
(** Like {!reset}, but keeps the backing storage (the sparse table and
    its block keys) so a reused space stops allocating once warm — the
    benchmark-friendly variant. *)

val probe_count : t -> int
(** Total number of [tas] calls so far — the total step complexity of
    everything run against this space. *)

val win_count : t -> int
(** Number of taken locations. *)

val high_water_mark : t -> int
(** 1 + the largest location ever probed; the space actually used. *)

(** {1 Snapshots}

    O(high-water-mark) structural snapshots, sized for the systematic
    explorer ([Analysis.Explore]) which saves and restores the space on
    every DFS branch: only the bytes of the dense bitmap below the
    high-water mark (⌈min(capacity, hwm)/8⌉ of them) and the non-empty
    sparse blocks are copied, so tiny configurations snapshot in a few
    bytes. *)

type snap

val save : t -> snap
(** Capture the taken/free state of every location below the high-water
    mark, plus the counters. *)

val restore : t -> snap -> unit
(** Return the space to exactly the captured state (locations, probes,
    wins, high-water mark). *)
