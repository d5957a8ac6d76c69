(** Orchestration: turn an experiment's sweep into jobs and execute them
    fault-tolerantly.

    The plan for one experiment is the job list of its
    [Experiment.Trials] body.  {!execute} (1) drops jobs already present in
    the store when resuming, (2) fans the rest out on {!Pool.run_guarded},
    (3) appends one {!Sink.record} per successful job and one
    {!Fault.failure} per failed attempt as they complete, and (4) reports
    progress.  The pipeline is deterministic end to end: worker count,
    resume points and retry sequences change only [wall_ns] and record
    order, never the measured values — per-attempt seeds come from
    {!Seed_tree.derive_attempt}.

    Fault-tolerance contract:
    - a raising job is retried up to [retries] times, each failed attempt
      quarantined in [<out_dir>/<id>.failures.jsonl]; other jobs are
      unaffected;
    - a job finishing over [job_timeout] seconds counts as a failed
      attempt; one stuck past [job_timeout + grace] is abandoned by the
      watchdog ({!Pool.run_guarded}) and quarantined;
    - [should_stop] (poll it from a signal flag) stops claiming new jobs
      and drains in-flight ones; the outcome then has
      [interrupted = true];
    - on resume, previously quarantined jobs re-schedule with the
      attempts they have already burned, up to the budget. *)

type outcome = {
  experiment : string;
  total_jobs : int;  (** size of the full plan *)
  skipped : int;  (** already complete in the store (resume) *)
  executed : int;  (** jobs settled in this invocation (success or not) *)
  quarantined : int;
      (** jobs with no successful record: budget exhausted (now or in a
          previous run) or abandoned by the watchdog *)
  failed_keys : string list;  (** keys of the quarantined jobs *)
  failures : int;  (** failure records appended to the quarantine *)
  malformed : int;
      (** malformed mid-file store lines found while resuming (see
          {!Checkpoint.scan}); [0] on fresh runs *)
  interrupted : bool;  (** stopped early via [should_stop] / watchdog *)
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
  ?retries:int ->
  ?job_timeout:float ->
  ?should_stop:(unit -> bool) ->
  ?grace:float ->
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
    [true]) prints stderr progress lines; [retries] (default [0]) is the
    number of re-attempts after a job's first failure — a job failing
    [retries + 1] times is quarantined; [job_timeout] (seconds, default
    none) fails attempts that run over it and, together with [grace]
    (default [2.0]), bounds how long a stuck attempt can hold a worker;
    [should_stop] (default: never) makes the run stop claiming new jobs
    once true; [log] (default: stderr) receives warnings (malformed
    store lines, watchdog stalls, exhausted-budget jobs).

    Returns [None] if the experiment exposes no job view (nothing is
    written).  All sinks are closed and the watchdog joined even when an
    infrastructure exception (store write failure) propagates. *)

val write_manifest :
  out_dir:string ->
  ids:string list ->
  workers:int ->
  resume:bool ->
  status:string ->
  retries:int ->
  job_timeout:float option ->
  ctx:Harness.Experiment.ctx ->
  unit
(** Record the run parameters in [<out_dir>/manifest.json], including the
    engine schema version ({!Sink.schema_version}), a [git describe] of
    the working tree ("unknown" outside a repo), and [status] —
    ["running"], ["completed"] or ["interrupted"] — so resume validation
    ({!Checkpoint.validate_manifest}) and [repro_cli doctor] have ground
    truth to check against.  Write it once with [status:"running"] before
    executing and again with the final status. *)
