(** The unbounded collection [R_1, R_2, ...] of ReBatching objects shared
    by the adaptive algorithms (paper §5).

    Object [R_i] is a ReBatching instance for [n_i = 2^i] processes, hence
    with namespace size [m_i = ceil ((1+eps) 2^i)], laid out at the fixed
    global offset [s_i = sum_{j<i} m_j].  Because the layout is a pure
    function of the parameters, every process (and every substrate) can
    compute it independently — no shared allocation step is needed, which
    keeps the step-complexity accounting honest.

    Instances are memoized, so [obj space i] is cheap after first use. *)

type t

val create : ?epsilon:float -> ?t0:int -> ?beta:int -> ?cap:int -> unit -> t
(** [create ()] describes a fresh collection.  Defaults: [epsilon = 1.0]
    (the Fast variant of §5.2 requires exactly this), [beta =
    Rebatching.default_beta], [t0] per the paper's formula.  The
    parameters apply to every [R_i].

    [cap] (default {!max_index}) bounds the largest object index — the
    §5 remark that when [n] is known, the first [2^(ceil(log n)+1)] TAS
    objects suffice and total space is O(n).  With a cap, the adaptive
    algorithms report failure instead of growing past [R_cap].
    @raise Invalid_argument if [cap] is outside [1, max_index]. *)

val cap : t -> int
(** The largest usable object index of this collection. *)

val obj : t -> int -> Rebatching.t
(** [obj space i] is [R_i], for [i >= 1].  @raise Invalid_argument if
    [i < 1] or [i > 60]. *)

val offset : t -> int -> int
(** [offset space i] is [s_i], the first global location of [R_i]. *)

val total_size : t -> int -> int
(** [total_size space i] is [s_{i+1}], the number of global locations
    used by [R_1 .. R_i] — the space bound to check against the paper's
    [O(n)] claim when [i = ceil (log2 n) + 1]. *)

val ladder_capacity : t -> int
(** [ladder_capacity space] is [total_size space 16]: the one capacity
    every fixed-size driver gives the adaptive algorithms (the fast
    core's dense prefix, real atomics, chaos plans).  The ladder's
    reachable depth grows like [O(log log n)], so 16 objects cover any
    feasible process count.  A process that overshoots the race ladder
    still probes farther objects — at [k = 131072] up to [R_32], with a
    high-water mark of 1.29e10 — which the simulated space keeps in its
    sparse tail and the atomic space rejects.
    @raise Invalid_argument if [cap space < 16]. *)

val owner_of_name : t -> int -> int option
(** [owner_of_name space u] is the index [i] with [u] in [R_i]'s
    namespace, if any.  Names below [offset space 1] have no owner. *)

val in_object : t -> int -> name:int -> bool
(** [in_object space i ~name] is the "[name ∈ R_i]" test of Figure 2. *)

val max_index : int
(** Largest supported object index (60; [2^60] processes is beyond any
    conceivable run, and keeps offsets inside OCaml's [int]). *)

(** {1 Flat geometry for the machines} *)

type geometry = {
  top : int;  (** {!cap} *)
  kappa : int array;  (** per object index [1..top]: [Rebatching.kappa] *)
  batch_size : int array array;  (** [batch_size.(i).(b)] = [|B_b|] of [R_i] *)
  batch_offset : int array array;  (** first global location of each batch *)
  budget : int array array;  (** probe budget [t_b] of each batch *)
  name_lo : int array;  (** first name of [R_i] *)
  name_hi : int array;  (** one past the last name of [R_i] *)
}
(** Every object's batch layout up to the cap, as flat tables, so the
    adaptive machines' step path does no option matching or float
    math.  Index 0 is unused. *)

val geometry : t -> geometry
(** The space's geometry tables, built on first use and then shared. *)

val in_range : geometry -> int -> int -> bool
(** [in_range g i name] is {!in_object} on the tables. *)
