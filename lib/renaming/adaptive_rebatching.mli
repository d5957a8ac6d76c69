(** The AdaptiveReBatching algorithm (paper §5.1).

    Adaptive loose renaming: without knowing the contention [k] (nor even
    [n]), every process obtains a name of value [O(k)] within
    [O((log log k)^2)] steps, both w.h.p. (Theorem 5.1).

    The algorithm runs over the shared collection {!Object_space.t} of
    ReBatching objects [R_1, R_2, ...] ([R_i] sized for [2^i] processes),
    with the backup phase disabled so that [GetName] on an over-contended
    object simply fails.  A process
    + races up: calls [R_{2^l}.GetName] for [l = 0, 1, 2, ...] until it
      first wins a name, from [R_{2^{l*}}]; then
    + crunches down: binary-searches the index range
      [2^{l*-1}+1 .. 2^{l*}] for the smallest object that still yields it
      a name, updating its name on every successful probe.

    The name finally returned comes from an object [R_i] with
    [n_i <= 2^{ceil(log k)}] w.h.p., hence is at most [4(1+eps)k]. *)

val machine : Object_space.t -> Machine.t
(** The algorithm as a {!Machine.t}.  Events, in the order the paper's
    pseudocode performs them: [Object_visited i] on entering [R_i], then
    [R_i]'s [Probe]/[Batch_failed]/[Name_acquired] events (with [obj = i]),
    exactly as {!Rebatching.machine} [~backup:false] on [R_i] emits
    them. *)

val machine_releasing : Object_space.t -> Machine.t
(** Like {!machine}, but each superseded name is reset (one
    {!Machine.release} step, then [Name_released]) before the search
    goes on. *)

val get_name : Env.t -> Object_space.t -> int option
(** [get_name env space] is {!Machine.drive} of {!machine}: this
    process's name, or [None] in the
    (probability-zero under the model's assumptions, but reachable if the
    caller exceeds the space's cap) event that every object up to the cap
    is exhausted.  As in the paper, names acquired and then superseded
    during the binary search stay taken — harmless for one-shot renaming
    (the O(k) bound already accounts for them). *)

val get_name_releasing : Env.t -> Object_space.t -> int option
(** {!Machine.drive} of {!machine_releasing}: like {!get_name} but
    superseded intermediate names are reset (one
    shared-memory step each) instead of abandoned.  Required for
    long-lived use ({!Long_lived.Adaptive}), where abandoned names would
    leak the namespace across epochs; needs an environment with reset
    support. *)
