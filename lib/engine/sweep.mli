(** The large-n batch driver behind `repro_cli bench --large`.

    Fans the trial jobs of a list of (experiment, ctx) plans across
    domains via {!Plan.execute} — so the sweep inherits the seed tree,
    the crash-safe JSONL store, quarantine and [--resume] — then folds
    the stores into one committed artifact ([bench/BENCH_1.json], kind
    ["bench-large"]).

    Determinism: everything in the artifact except the timing fields
    ([ns_per_op], [wall_s]) is a pure function of (seed, grid).  Worker
    count, resume points and record order never change the measured
    values; [aggregate] additionally sorts rows by (experiment, series,
    n) so even the artifact bytes agree (timing aside). *)

type row = {
  experiment : string;  (** registry id, e.g. ["t1l"] *)
  series : string;  (** series label, e.g. ["rebatch_paper"] *)
  n : int;  (** decade (processes for t1l, contention for t5l) *)
  trials : int;
  mean_max_steps : float;
  min_max_steps : float;
  max_max_steps : float;
  mean_total_steps : float;
  mean_space_used : float;
  mean_max_name : float;
  words_per_op : float;
      (** worst trial's minor words per step — the zero-allocation gate *)
  ns_per_op : float;
      (** wall per step across all trials; machine-dependent, reported but
          never gated *)
  wall_s : float;  (** total wall across trials *)
}

type artifact = { seed : int; rows : row list }

(** {1 Execution} *)

type run = {
  outcomes : Plan.outcome list;  (** one per experiment, in plan order *)
  interrupted : bool;
  quarantined : int;  (** total across experiments *)
}

val execute :
  ?workers:int ->
  ?resume:bool ->
  ?progress:bool ->
  ?retries:int ->
  ?should_stop:(unit -> bool) ->
  ?log:(string -> unit) ->
  store_dir:string ->
  plans:(Harness.Experiment.t * Harness.Experiment.ctx) list ->
  unit ->
  run
(** Run every plan's jobs into [<store_dir>/<id>.jsonl] via
    {!Plan.execute}, writing a shared run manifest before and after.  On
    [resume], the existing manifest (if any) is validated against the
    first plan's ctx and the experiment ids first — mismatches
    [failwith] rather than silently mixing parameters.  Experiments
    after an interrupted one are not started. *)

val aggregate :
  store_dir:string ->
  plans:(Harness.Experiment.t * Harness.Experiment.ctx) list ->
  artifact
(** Fold the stores of [plans] into artifact rows: records deduplicated
    by job key (first wins, matching the resume scan), grouped by
    (series, n) with the series parsed from the ["series/n=..."] point
    labels, trials summed in trial order, rows sorted by (experiment,
    series, n).  @raise Invalid_argument on an empty plan list. *)

(** {1 Artifact} *)

val kind : artifact Artifact.kind
(** Kind ["bench-large"], schema 1, numbered [BENCH_<k>.json] (shared
    with {!Kernel_bench.kind}).  [encode] writes one row per line.

    [audit]: at least one row; each (experiment, series) n grid is
    consecutive decades (each n exactly 10x the previous); no empty
    decade; mean max steps and space at least 1; [words_per_op] at most
    0.01 (a boxing step costs at least 1 word/op, the metering orders of
    magnitude less); every mean finite.

    [regress]: every current row is in the baseline, and its mean max
    steps and space lie within [threshold]-relative bands (at least
    +/-1 step and +/-2 cells wide, since small decades are
    integer-quantized).  A scaled-down run is a row subset of the full
    baseline, so smoke checks pass the exact gate the full run commits.
    Timing is never checked, and baseline rows absent from the current
    run are fine (that is what a smoke run is).  [render] is an aligned
    table of every row (max steps, steps/proc, space/n, ns/op, words/op,
    wall). *)

val series_of_label : string -> string
(** ["rebatch_paper/n=1000"] -> ["rebatch_paper"] (exposed for tests). *)
