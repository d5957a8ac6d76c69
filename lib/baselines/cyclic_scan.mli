(** Baseline: random-start cyclic scan (linear-probing style).

    A process picks a uniformly random start location and then scans
    cyclically until it wins.  This is the renaming analogue of
    linear-probing hash insertion; with [m = (1+eps) n] its expected probe
    count is constant, but clustering makes the *maximum* over processes
    [Theta(log n)] — another [log n]-class baseline for experiment T1,
    interesting because its average is excellent. *)

val machine : m:int -> Renaming.Machine.t
(** The scan as a {!Renaming.Machine.t} (one draw, for the start);
    events as {!Uniform_probe.machine}.  @raise Invalid_argument if
    [m < 1]. *)

val get_name : Renaming.Env.t -> m:int -> int option
(** [get_name env ~m] probes [start, start+1, ... (mod m)]; [None] if a
    full cycle finds every location taken.  @raise Invalid_argument if
    [m < 1]. *)
