(** Crash-safe resume: recover completed work from a JSONL store.

    The JSONL store is its own checkpoint — every line is one finished
    job, flushed when it completed.  On [--resume] the engine scans the
    existing store, collects the job keys that are already present, and
    schedules only the rest.  A line truncated mid-write by the crash
    fails to parse and is simply not counted, so its job runs again; the
    deterministic seed tree guarantees the rerun produces the record the
    original run would have.

    Resuming is only sound against the store the parameters were written
    with, so {!validate_manifest} checks the stored [manifest.json]
    (seed, trial count, scale, experiment set, schema version) against
    the new invocation and reports the offending field on mismatch.
    {!audit_stores} is [repro_cli doctor]'s audit of a store. *)

val records : string -> Sink.record list
(** [records file] is every well-formed record in [file], in file order.
    A missing file is an empty store.  Malformed lines (truncated tails,
    stray garbage) are skipped. *)

(** {1 Scanning} *)

type scan = {
  keys : (string, unit) Hashtbl.t;  (** distinct job keys present *)
  records : int;  (** well-formed lines *)
  duplicates : int;  (** well-formed lines whose key was already seen *)
  malformed_mid : int;
      (** malformed lines {e before} the final line — corruption, not a
          crash artifact; surfaced in the resume summary and by
          [repro_cli doctor] rather than silently skipped *)
  malformed_tail : bool;
      (** the final line is malformed — the expected leftover of a crash
          mid-write (its job simply reruns) *)
}

val empty_scan : unit -> scan
(** The scan of a store that does not exist yet. *)

val scan_store : string -> scan
(** One pass over the store.  A missing file yields {!empty_scan}. *)

val pending :
  completed:(string, unit) Hashtbl.t ->
  key:('a -> string) ->
  'a list ->
  'a list * int
(** [pending ~completed ~key jobs] partitions [jobs] into the ones still
    to run (order preserved) and the count of already-completed ones
    being skipped. *)

(** {1 Manifest validation} *)

val validate_manifest :
  manifest:(string * string) list ->
  ids:string list ->
  seed:int ->
  trials:int ->
  scale:float ->
  (unit, string) result
(** [validate_manifest ~manifest ~ids ~seed ~trials ~scale] checks a
    stored manifest (from {!Sink.read_manifest}) against the parameters
    of a new [--resume] invocation: schema version, [seed], [trials] and
    [scale] must match exactly, and every id in [ids] must belong to the
    stored experiment set.  Fields the (older) manifest does not carry
    are skipped.  The error message names the offending manifest
    field. *)

(** {1 Audit: [doctor]'s lines} *)

val audit_manifest :
  string -> [ `Info of string | `Note of string | `Problem of string ] list
(** [manifest.json]: a foreign schema is a problem; no manifest, no
    schema field, or an interrupted or running status is a note. *)

val audit_stores :
  string -> [ `Info of string | `Note of string | `Problem of string ] list
(** Every [<id>.jsonl] store, in name order: its counts; duplicate keys,
    malformed mid-file lines, seeds that do not re-derive from the
    manifest's root seed, and quarantined jobs as problems; a truncated
    tail as a note. *)
