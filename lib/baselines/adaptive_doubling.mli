(** Baseline: adaptive doubling with uniform probes.

    The pre-ReBatching adaptive strategy in the style of Alistarh et al.
    [6] ("Fast randomized test-and-set and renaming", DISC 2010): maintain
    a guess [2^l] for the contention; make [c] uniformly random probes in
    a namespace of size [2^{l+1}]; on failure double the guess.  Names are
    [O(k)] w.h.p. and the step complexity is [O(log k)] probes per level
    over [O(log k)] levels in the worst case — the [O(log^2 k)]-class
    comparator that AdaptiveReBatching improves to [O((log log k)^2)]
    (experiments T5/T6).

    Levels use the same disjoint-namespace layout as the ReBatching object
    space so that measured name values are comparable. *)

val machine : ?probes_per_level:int -> Renaming.Object_space.t -> Renaming.Machine.t
(** The strategy as a {!Renaming.Machine.t}: [Object_visited i] on each
    level, then one [Probe] (obj [i], batch 0) per TAS and
    [Name_acquired] on the win.  @raise Invalid_argument if
    [probes_per_level < 1]. *)

val get_name :
  Renaming.Env.t -> ?probes_per_level:int -> Renaming.Object_space.t -> int option
(** [get_name env space] races levels [l = 0, 1, ...], making
    [probes_per_level] (default 4) uniform probes over the whole namespace
    of object [R_{l+1}] at each level; [None] past
    {!Renaming.Object_space.max_index}. *)
