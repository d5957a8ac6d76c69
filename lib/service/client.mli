(** Client side of the renaming service.

    Two usage styles over one connection type:

    - {b Synchronous}: {!acquire}/{!release}/{!renew}/{!stats}/
      {!shutdown} send one request and block for its response — the
      convenient form for tools and tests.
    - {b Pipelined}: {!post} many requests (ids from {!fresh_id}),
      flush, and collect completions with {!recv} — the form the
      open-loop load generator needs, where send times are dictated by
      the arrival process, not by completions.

    The two styles must not be interleaved on one connection: the
    synchronous calls assume every in-flight id is their own.

    {!Durable} wraps a connection with the client half of
    survivability: per-request deadlines, reconnect with capped
    exponential backoff + jitter, and idempotent acquire via request
    tokens, so a daemon restart costs latency instead of correctness. *)

type t

type failure =
  | Transport of string
      (** the wire failed or went silent (connect/flush/read error,
          deadline passed) — the request's fate is unknown and a retry
          may help *)
  | Remote of { op : Wire.op; code : int; msg : string }
      (** the server answered with an error — retrying verbatim cannot
          help *)
  | Busy of { op : Wire.op; retry_after_ms : int }
      (** the server refused admission under overload; the request was
          never executed.  Retry after [retry_after_ms] (plus jitter) —
          {!Durable} does so automatically *)

val failure_message : failure -> string

val connect : ?mode:Wire.mode -> path:string -> unit -> (t, string) result
(** Connect to the daemon's Unix-domain socket.  [mode] defaults to
    {!Wire.Binary}; pass {!Wire.Json} to exercise the line-JSON
    fallback.  [Error] describes a connect failure. *)

val close : t -> unit
val fd : t -> Unix.file_descr
(** for [select] in external loops *)

val fresh_id : t -> int
(** Next request id (counter, wraps within u32). *)

(** {1 Synchronous operations}

    [timeout] (seconds, default 30) bounds the wait for the response on
    the {e monotonic} clock (wall-clock steps cannot fire or stall
    deadlines); expiry is a {!Transport} failure. *)

val acquire :
  ?timeout:float ->
  ?token:int ->
  ?deadline_ms:int ->
  t ->
  client:int ->
  (int, failure) result
(** [token <> 0] makes the acquire idempotent: the server binds it to
    the grant's lease, and a retry carrying the same token re-delivers
    the original name (see {!Wire.request}).  [deadline_ms > 0] is the
    remaining budget stamped on the wire: the server sheds the request
    ([err_expired]) instead of serving it late.  Default [0] = none. *)

val release : ?timeout:float -> t -> client:int -> name:int -> (unit, failure) result
val renew : ?timeout:float -> t -> client:int -> (int, failure) result
(** Heartbeat: extend the lease on every name this connection holds;
    returns how many were extended. *)

val stats : ?timeout:float -> t -> (Jsonu.t, failure) result

val stats_once : path:string -> ((string * Jsonu.t) list, string) result
(** One [stats] round trip on a throwaway connection to [path]: the
    reply's fields.  [Error] describes a connect, transport or server
    failure, or a reply that is not an object. *)

val shutdown : ?timeout:float -> t -> (unit, failure) result

(** {1 Pipelined operations} *)

val post : t -> Wire.request -> unit
(** Queue an encoded request and opportunistically flush without
    blocking. *)

val flush : t -> (unit, string) result
(** Block until the send queue is empty. *)

val flush_nb : t -> unit
(** One non-blocking flush attempt; transient failure (EAGAIN, or a
    hard error the next [recv] will surface as typed) is swallowed.
    Event loops that may stop posting — the load generator's drain —
    call this each tick so EAGAIN residue still leaves. *)

val pending_out : t -> bool
(** Unsent bytes remain (the fd should be watched for writability). *)

val recv : t -> timeout:float -> (Wire.response option, string) result
(** One decoded response, waiting up to [timeout] seconds for bytes.
    [Ok None] on timeout; [Error] on connection loss or protocol
    corruption. *)

(** {1 Durable connections} *)

module Durable : sig
  type conn

  val create :
    ?mode:Wire.mode ->
    ?attempts:int ->
    ?backoff_base:float ->
    ?backoff_cap:float ->
    ?timeout:float ->
    path:string ->
    seed:int ->
    unit ->
    conn
  (** A lazily-(re)connected endpoint.  Operations retry up to
      [attempts] times (default 8) across {!Transport} failures,
      sleeping [backoff_base * 2^k] (default 20 ms, capped at
      [backoff_cap], default 1 s) with multiplicative jitter drawn from
      a SplitMix stream seeded by [seed] — deterministic per client,
      decorrelated across clients.  {!Remote} failures are returned
      immediately, never retried.  {!Busy} refusals are retried on the
      same link, sleeping at least the server's [retry_after_ms] hint
      (jittered, capped) — the client half of the overload contract. *)

  val acquire : ?deadline_ms:int -> conn -> client:int -> (int, failure) result
  (** Idempotent: one fresh nonzero token per call, reused across its
      retries, so an acquire whose reply was lost re-delivers the same
      name instead of taking a second slot.  The whole logical acquire
      (retries and backoff included) spends one budget — [deadline_ms]
      if given, else the connection timeout — and each attempt stamps
      the remaining budget on the wire, so the server can shed work
      this client has already abandoned. *)

  val release : conn -> client:int -> name:int -> (unit, failure) result
  (** [err_not_held] on a retry attempt counts as success: the lost
      first attempt may have already released the name. *)

  val renew : conn -> client:int -> (int, failure) result
  val stats : conn -> (Jsonu.t, failure) result

  val reconnects : conn -> int
  (** transport failures that forced a drop-and-retry *)

  val close : conn -> unit
end
