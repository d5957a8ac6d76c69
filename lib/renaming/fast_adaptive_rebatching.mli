(** The FastAdaptiveReBatching algorithm (paper §5.2, Figure 2).

    Same guarantees as {!Adaptive_rebatching} on the largest name
    ([O(k)] w.h.p.) but with *total* step complexity [O(k log log k)]
    w.h.p. (Theorem 5.2) instead of [Theta(k (log log k)^2)].

    The trick: instead of running a full [GetName] (all batches,
    [Theta(log log n_i)] probes) on every object it visits, a process
    spends only a constant number of probes per visit — one
    [TryGetName(t)] call, i.e. one batch — and threads the batch counter
    [t] through a recursive binary search ([Search] in Figure 2).  An
    object may therefore be revisited with an incremented [t]; the
    recursion bookkeeping guarantees that whenever the process finally
    settles on a name from [R_i] with [i] above its lower bound, it has
    already failed on all batches of [R_{i-1}], certifying [Omega(n_i)]
    contention.

    Requires the object space to use [epsilon = 1] (as in the paper; the
    namespace of [R_i] then has size exactly [2^{i+1}]). *)

val machine : Object_space.t -> Machine.t
(** The algorithm as a {!Machine.t}; Search runs on an explicit bounded
    stack inside the state block.  Events: [Object_visited i] on each
    race level, then the [Probe]/[Batch_failed]/[Name_acquired] events
    of each [TryGetName] call (with [obj] the object index, [batch] the
    batch [t]).  @raise Invalid_argument unless the space uses
    [epsilon = 1]. *)

val machine_releasing : Object_space.t -> Machine.t
(** Like {!machine}, but each superseded name is reset (one
    {!Machine.release} step, then [Name_released]) before Search goes
    on. *)

val get_name : Env.t -> Object_space.t -> int option
(** [get_name env space] is {!Machine.drive} of {!machine}: this
    process's name ([None] only beyond
    the space's cap).  @raise Invalid_argument if [space] was not created
    with [epsilon = 1.0].  Superseded intermediate names stay taken, as
    in the paper. *)

val get_name_releasing : Env.t -> Object_space.t -> int option
(** {!Machine.drive} of {!machine_releasing}: like {!get_name} but
    superseded names are reset — the long-lived
    mode; needs an environment with reset support. *)
