(** Deterministic per-job seed derivation.

    Every trial job executed by the engine gets its seed as a pure
    function of [(root, experiment, sweep_point, trial)], derived through
    SplitMix64 stream splitting ({!Prng.Splitmix.split_at}).  Because the
    derivation never depends on scheduling — not on worker count, not on
    completion order, not on which jobs a resumed run skips — [--jobs 1]
    and [--jobs 8] produce bit-identical per-trial statistics, and a
    resumed run re-executes a missing job with exactly the seed the
    original run would have used.  A job has this one seed: one that
    raises is quarantined on it, never re-run on another ({!Plan}).

    This mirrors how the simulator already keys per-process coin streams
    on [(seed, pid)] (see {!Prng.Splitmix}): the seed tree is one level
    up, keying per-job streams on the experiment coordinates. *)

val rng :
  root:int -> experiment:string -> sweep_point:int -> trial:int -> Prng.Splitmix.t
(** The job's private generator.  Distinct coordinates give streams that
    are independent for all practical purposes. *)

val derive : root:int -> experiment:string -> sweep_point:int -> trial:int -> int
(** [derive ~root ~experiment ~sweep_point ~trial] is a non-negative
    62-bit seed drawn from {!rng} — what the engine passes to
    [Experiment.job.run_job].  Stable across calls, processes and
    library versions (pure SplitMix64 arithmetic, no [Hashtbl.hash]). *)
