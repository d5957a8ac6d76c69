(** The large-n artifact behind `repro_cli bench --large`: kind
    ["bench-large"], committed as [bench/BENCH_1.json].

    The t1l/t5l trial jobs run through {!Plan.run_batch} like any other
    engine batch (seed tree, crash-safe JSONL store, quarantine,
    [--resume]); this module folds the resulting stores into artifact
    rows ({!aggregate}) and carries the kind's codec, audit and
    regression gate ({!kind}).

    Determinism: everything in the artifact except the timing fields
    ([ns_per_op], [wall_s]) is a pure function of (seed, grid).  Worker
    count, resume points, record order and records left in the store by
    an earlier run over a wider grid never change the rows; [aggregate]
    additionally sorts rows by (experiment, series, n) so even the
    artifact bytes agree (timing aside). *)

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

(** {1 Aggregation} *)

val aggregate :
  store_dir:string ->
  plans:(Harness.Experiment.t * Harness.Experiment.ctx) list ->
  artifact
(** Fold the stores of [plans] into artifact rows.  Only the records of
    the jobs each plan requests ({!Plan.plan} under its own ctx) are
    read, so a store resumed with a narrower grid yields the rows of a
    fresh narrow run.  Records are deduplicated by job key (first wins,
    matching the resume scan) and grouped by (series, n), with the series
    parsed from the ["series/n=..."] point labels; trials are summed in
    trial order and rows sorted by (experiment, series, n).
    @raise Invalid_argument on an empty plan list. *)

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
