(** Orchestration: turn experiments' sweeps into jobs and execute them
    fault-tolerantly.

    The plan for one experiment is the job list of its
    [Experiment.Trials] body.  {!execute} runs one plan: it (1) drops
    jobs already present in the store when resuming, (2) fans the rest
    out on {!Pool.run_guarded}, (3) appends one {!Sink.record} per
    successful job and one {!Fault.failure} per raising job as they
    complete, and (4) reports progress.  {!run_batch} is the one driver
    over a list of experiments — [repro_cli run --out] and [repro_cli
    bench --large] both go through it: it checks the stored manifest
    before a resume, brackets the batch with the manifest, runs each
    experiment with {!execute}, and stops on interrupt.  The pipeline is
    deterministic end to end: worker count and resume points change only
    [wall_ns] and record order, never the measured values.

    Fault model: a job is a pure function of its seed.
    - each job runs exactly once per invocation, on
      {!Seed_tree.derive} of its coordinates;
    - a job that raises leaves one failure line (key, seed, error,
      backtrace, wall time) in [<out_dir>/<id>.failures.jsonl] and no
      record; the other jobs are unaffected, and the batch's manifest
      ends ["quarantined"];
    - [should_stop] (poll it from a signal flag) stops claiming new jobs
      and drains in-flight ones; the outcome then has
      [interrupted = true].  Nothing bounds a job's wall time: a job
      that hangs holds its worker until the process is stopped;
    - on resume, every job with no record runs again, on the same seed —
      a quarantined job included;
    - in a batch, an experiment that raises [Failure] is reported and the
      next experiment still runs. *)

type outcome = {
  experiment : string;
  total_jobs : int;  (** size of the full plan *)
  skipped : int;  (** already complete in the store (resume) *)
  executed : int;  (** jobs settled in this invocation (success or not) *)
  quarantined : int;  (** jobs that raised in this invocation *)
  failed_keys : string list;
      (** keys of the quarantined jobs, in completion order *)
  malformed : int;
      (** malformed mid-file store lines found while resuming (see
          {!Checkpoint.scan}); [0] on fresh runs *)
  interrupted : bool;  (** stopped early via [should_stop] *)
  wall_s : float;
      (** wall-clock seconds this invocation spent (nondeterministic) *)
  store : string;  (** path of the JSONL result file *)
  failures_store : string;  (** path of the quarantine file *)
}

val job_key : experiment:string -> Harness.Experiment.job -> string
(** ["<experiment>/<sweep_point>/<trial>"]. *)

val plan :
  ctx:Harness.Experiment.ctx ->
  Harness.Experiment.t ->
  Harness.Experiment.job list option
(** The experiment's job list, or [None] for a [Serial] body. *)

val execute :
  ?workers:int ->
  ?resume:bool ->
  ?progress:bool ->
  ?should_stop:(unit -> bool) ->
  ?log:(string -> unit) ->
  out_dir:string ->
  ctx:Harness.Experiment.ctx ->
  Harness.Experiment.t ->
  outcome option
(** [execute ~out_dir ~ctx exp] runs [exp]'s plan into
    [<out_dir>/<id>.jsonl], quarantining failures into
    [<out_dir>/<id>.failures.jsonl].

    [workers] defaults to {!Pool.default_workers}[ ()]; [resume]
    (default [false]) keeps the existing store and skips completed keys,
    otherwise both store and quarantine are reset; [progress] (default
    [true]) prints stderr progress lines; [should_stop] (default: never)
    makes the run stop claiming new jobs once true; [log] (default:
    stderr) receives warnings (malformed store lines).

    Returns [None] if the experiment exposes no job view (nothing is
    written).  Both sinks are closed even when an infrastructure
    exception (store write failure) propagates. *)

val write_manifest :
  out_dir:string ->
  ids:string list ->
  workers:int ->
  resume:bool ->
  status:string ->
  ctx:Harness.Experiment.ctx ->
  unit
(** Record the run parameters in [<out_dir>/manifest.json], including the
    engine schema version ({!Sink.schema_version}), a [git describe] of
    the working tree ("unknown" outside a repo), and [status] (its values
    are listed under {!run_batch}), so resume validation
    ({!Checkpoint.validate_manifest}) and [repro_cli doctor] have ground
    truth to check against.  {!run_batch} writes it once with
    [status:"running"] before executing and again with the final
    status. *)

(** {1 Batch driver} *)

type batch = {
  outcomes : outcome list;
      (** one per experiment that ran, in batch order *)
  failed : (string * string) list;
      (** [(id, message)] of each experiment whose execution raised
          [Failure]; the batch went on past it *)
  serial : Harness.Experiment.t list;
      (** experiments with a [Serial] body, skipped (nothing written for
          them), in batch order — the caller may run them serially *)
  interrupted : bool;
      (** [should_stop] left part of the batch undone *)
}

val run_batch :
  ?workers:int ->
  ?resume:bool ->
  ?scale_free:bool ->
  ?progress:bool ->
  ?should_stop:(unit -> bool) ->
  ?log:(string -> unit) ->
  out_dir:string ->
  (Harness.Experiment.t * Harness.Experiment.ctx) list ->
  (batch, string) result
(** [run_batch ~out_dir plans] runs each [(experiment, ctx)] through
    {!execute} in list order, with the same options.

    On [resume], a manifest already in [out_dir] is first checked
    against the ids of [plans] and the {e first} plan's ctx (seed,
    trials, scale; {!Checkpoint.validate_manifest}); a mismatch returns
    [Error msg] before anything is written.  [scale_free] (default
    [false]) declares that every plan indexes its jobs on a grid that
    does not depend on the ctx's scale (the large-n sweeps index the
    full decade grid), so another scale only selects a subset or
    superset of the same job keys: the resume check then compares
    seed, trials and ids only, for every plan alike.  The manifest is then
    written with status ["running"] and, when the batch ends, with the
    final status:
    - ["interrupted"] if the batch stopped early: [should_stop] held
      before an experiment, or an experiment's outcome is interrupted;
      later experiments are not started;
    - otherwise ["failed"] if an experiment raised [Failure];
    - otherwise ["quarantined"] if a job has no successful record;
    - otherwise ["completed"].
    [Serial] experiments do not affect the status.

    [workers] defaults to {!Pool.default_workers}[ ()]; the other
    options are {!execute}'s.  Other exceptions (store write failures)
    propagate, leaving the manifest at ["running"].
    @raise Invalid_argument on an empty [plans]. *)
