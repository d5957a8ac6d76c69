(** Baseline: uniform random probing.

    The naive randomized renaming strategy sketched in the paper's
    introduction: repeatedly test-and-set a location chosen uniformly at
    random among all [m] locations until one is won.

    With [m = (1+eps) n] this terminates, but §4 notes that with
    probability [1 - o(1)] some process needs [Omega(log n)] probes — the
    baseline that ReBatching beats exponentially.  Experiment T1 measures
    the crossover. *)

val machine : m:int -> max_steps:int -> Renaming.Machine.t
(** The strategy as a {!Renaming.Machine.t}: one [Probe] (obj 0, batch
    0) per TAS and [Name_acquired] on the win.  @raise Invalid_argument
    if [m < 1] or [max_steps < 1]. *)

val get_name : Renaming.Env.t -> m:int -> max_steps:int -> int option
(** [get_name env ~m ~max_steps] probes uniformly over global locations
    [0, m) until a win, giving up (returning [None]) after [max_steps]
    probes.  [max_steps] bounds the worst case — the strategy alone is
    only lock-free, not wait-free.  @raise Invalid_argument if [m < 1] or
    [max_steps < 1]. *)
