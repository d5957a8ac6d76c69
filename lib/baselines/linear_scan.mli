(** Baseline: deterministic sequential scan.

    Every process test-and-sets locations [0, 1, 2, ...] in order until it
    wins one.  This is the trivially correct wait-free algorithm with an
    *optimal* namespace (a process that wins location [j] has lost
    [j - 1] distinct earlier locations, so names are [<= k]) but
    [Theta(k)] step complexity — the "tight renaming is slow" end of the
    trade-off space.  It doubles as the backup phase of Figure 1. *)

val machine : m:int -> Renaming.Machine.t
(** The scan as a {!Renaming.Machine.t} (no draws); events as
    {!Uniform_probe.machine}.  @raise Invalid_argument if [m < 1]. *)

val get_name : Renaming.Env.t -> m:int -> int option
(** [get_name env ~m] scans locations [0 .. m-1]; [None] if all [m] are
    taken.  @raise Invalid_argument if [m < 1]. *)
