(** Per-job fault isolation: the quarantine store.

    A raising trial job must not kill the pool — the engine captures it
    as one structured {!failure} line in
    [<dir>/<experiment>.failures.jsonl] and moves on.  A job runs once
    per invocation, on its {!Seed_tree.derive} seed, so a quarantined job
    leaves exactly one line, carrying that seed — enough to replay the
    failure in isolation — and no record in the result store.

    The quarantine is append-only JSONL, flushed per line like the
    result store ({!Sink}).  It holds the failures of the latest
    invocation only: a resume re-runs every job that has no record, so
    {!create} starts the file afresh. *)

type failure = {
  key : string;  (** the job key, same format as {!Sink.record.key} *)
  experiment : string;
  sweep_point : int;
  trial : int;
  seed : int;  (** the {!Seed_tree.derive} seed the job ran with *)
  error : string;  (** [Printexc.to_string] of the exception *)
  backtrace : string;  (** raw backtrace, [""] if unavailable *)
  wall_ns : float;  (** wall-clock nanoseconds the job ran before raising *)
}

val store_path : dir:string -> experiment:string -> string
(** [<dir>/<experiment>.failures.jsonl]. *)

val failure_to_json : failure -> string
(** One line, no trailing newline. *)

val failure_of_json : string -> failure option
(** [None] on malformed input. *)

val load : string -> failure list
(** Every well-formed failure in the file, in file order.  A missing
    file is an empty quarantine; malformed lines are skipped. *)

(** {1 Writing} *)

type t

val create : dir:string -> experiment:string -> t
(** A quarantine sink.  Deletes any earlier failures file immediately;
    the file itself is only created when the first failure is written,
    so clean runs leave no empty quarantine. *)

val write : t -> failure -> unit
(** Appends one line and flushes.  Not thread-safe; the engine serializes
    calls through {!Pool}'s consumer mutex.  Goes through
    {!Io_fault.guarded_write} like the result store. *)

val close : t -> unit
