(** A [renamed] child process, for end-to-end soaks of the real binary.

    {!with_scratch} is the one bracket: it makes a scratch directory,
    runs the body on a handle with no child yet, and then — on every
    exit path, exceptions included — kills and reaps any child still
    running and removes the directory unless [keep].  The body {!boot}s,
    {!kill}s and {!drain}s the daemon as often as it likes; every child
    listens on {!socket}, where {!Client.stats_once} reads its stats. *)

type t

val with_scratch :
  ?binary:string ->
  keep:bool ->
  name:string ->
  log:(string -> unit) ->
  (t -> ('a, string) result) ->
  ('a, string) result
(** Run the body over the scratch directory [<tmp>/<name>_<pid>].
    [binary] defaults to [renamed.exe] next to the running executable;
    a missing binary is an [Error] before anything is created, and an
    exception from the body becomes an [Error] naming it.  SIGPIPE is
    ignored from here on: a soak writes to sockets whose peer it kills.
    [log] hears where a kept directory is. *)

val dir : t -> string
val socket : t -> string

val boot : t -> string list -> (unit, string) result
(** Kill any running child, spawn [binary --socket (socket t) args] on
    the caller's stdio, and wait up to 10 s until a connect succeeds —
    the daemon binds only after recovery.  After an [Error] ("daemon
    died during startup (exit 2)", or a missed deadline) no child is
    left. *)

val kill : t -> unit
(** SIGKILL the child and reap it; a no-op without one. *)

val drain : t -> int
(** SIGTERM the child and wait for its graceful drain: its exit code
    (0 = no slot leaked), or 125 after a signal death or without a
    child. *)

val rss_kb : t -> int
(** The child's resident set in kB, from [VmRSS] in /proc/<pid>/status
    (independent of page size); -1 when unreadable. *)
