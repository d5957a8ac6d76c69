(** A dynamic set of small non-negative integers with O(1) insert, delete,
    membership and uniform random choice.

    The scheduler and the adversary strategies maintain sets of waiting
    process ids and of contended locations; all of them must be updated on
    every simulated step, so constant-time operations are required to keep
    large simulations (millions of steps) fast.

    Membership is a value-indexed array, so a set's memory is
    O(largest element ever added) words: keep the elements small (pids,
    group ids, register indices), never raw TAS locations. *)

type t

val create : unit -> t
val size : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool

val add : t -> int -> unit
(** [add t v] inserts [v]; no-op if already present.
    @raise Invalid_argument on negative [v]. *)

val remove : t -> int -> unit
(** [remove t v] deletes [v]; no-op if absent. *)

val any : t -> Prng.Splitmix.t -> int
(** [any t rng] is a uniformly random element.  @raise Invalid_argument if
    the set is empty. *)

val first : t -> int
(** An arbitrary element (the one cheapest to produce; deterministic given
    the operation history).  @raise Invalid_argument if empty. *)

val iter : (int -> unit) -> t -> unit
val to_list : t -> int list
(** Elements in unspecified order. *)

val to_array : t -> int array
(** A fresh array of the elements, in {!to_list}'s order. *)
