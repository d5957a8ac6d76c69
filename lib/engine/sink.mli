(** Append-only JSONL result store.

    One line per completed trial job, one file per experiment
    ([<dir>/<experiment>.jsonl]), plus a run-level [manifest.json].
    Lines are flushed as they are written, so after a crash the store
    holds every completed job and at most one truncated final line —
    which {!Checkpoint} skips on resume.

    The encoder/decoder is a deliberately small, dependency-free JSON
    subset: flat objects of strings, numbers, and string→number maps —
    exactly the record schema below.  Floats round-trip exactly
    ([%.17g]).  The same subset backs the {!Fault} quarantine store and
    the manifest reader. *)

val schema_version : string
(** Version tag written into every manifest ([schema] field) and checked
    by resume validation and [repro_cli doctor].  Bumped on incompatible
    record/manifest layout changes. *)

type record = {
  key : string;
      (** stable job identity ["<experiment>/<sweep_point>/<trial>"] —
          what {!Checkpoint} deduplicates on *)
  experiment : string;
  sweep_point : int;
  point_label : string;
  trial : int;
  seed : int;  (** the {!Seed_tree.derive} seed the job ran with *)
  params : (string * float) list;
  values : (string * float) list;  (** the job's measured values *)
  wall_ns : float;  (** wall-clock nanoseconds spent in [run_job] *)
}

val record_to_json : record -> string
(** One line, no trailing newline. *)

val record_of_json : string -> record option
(** [None] on malformed input (including a line truncated by a crash). *)

val equal_ignoring_wall : record -> record -> bool
(** Equality on everything except [wall_ns] — the comparison the
    determinism guarantee ([--jobs 1] vs [--jobs 8]) is stated in. *)

(** {1 Writing} *)

val store_path : dir:string -> experiment:string -> string
(** [<dir>/<experiment>.jsonl] — the naming convention shared with
    {!Checkpoint}. *)

type t

val create : dir:string -> experiment:string -> append:bool -> t
(** Opens [<dir>/<experiment>.jsonl], creating [dir] (and parents) as
    needed.  [append:false] truncates any existing store; [append:true]
    keeps it (the resume path) and, if the file ends in a partial line
    left by a crash, terminates that line first so the next record does
    not glue onto the garbage. *)

val path : t -> string

val write : t -> record -> unit
(** Appends one line and flushes.  Not thread-safe; the engine serializes
    calls through {!Pool}'s consumer mutex.  The append goes through
    {!Io_fault.guarded_write}, so fault drills can inject write failures
    here.  @raise Io_fault.Injected when an armed fault fires. *)

val close : t -> unit

(** {1 Run manifest} *)

val write_manifest : dir:string -> (string * string) list -> unit
(** [write_manifest ~dir fields] writes [<dir>/manifest.json] as a flat
    string→string object, overwriting any previous manifest. *)

val read_manifest : dir:string -> (string * string) list option
(** The string fields of [<dir>/manifest.json], or [None] if the file is
    missing or unparseable.  Input to {!Checkpoint.validate_manifest}. *)

(** {1 Filesystem helper} *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents ([mkdir -p]).  @raise
    Failure if a path component exists and is not a directory. *)
