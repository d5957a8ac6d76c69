(** The renaming service's wire protocol.

    Two self-framing encodings of the same request/response algebra:

    - {b Binary}: a 4-byte big-endian payload length followed by the
      payload (opcode, request id, operands as fixed-width big-endian
      integers; strings are u16-length-prefixed).  This is the daemon's
      native format: fixed cost to encode, zero parsing ambiguity.
    - {b Json}: one {!Jsonu} object per line ([\n]-terminated) — the
      debuggable fallback; [socat] is a usable client.

    A connection picks its mode implicitly with its first byte: ['{']
    opens a JSON session, anything else is read as binary (a binary
    frame's first byte is the high byte of a length below
    {!max_frame}, hence never ['{']).

    Every request carries a client-chosen [id] echoed verbatim in the
    response, so one connection can multiplex many in-flight operations
    (the daemon answers acquires after the rest of a read, so their
    replies can follow those of later requests).  Decoding is incremental: feed whatever bytes have arrived
    and get back a frame, a request for more bytes, or a corruption
    verdict — never an exception and never a partial value. *)

type mode = Binary | Json

type request =
  | Acquire of { id : int; client : int; token : int; deadline_ms : int }
      (** obtain a name; [client] selects the shard.  [token <> 0] is a
          client-chosen idempotency token: retrying the same logical
          acquire with the same token after an ambiguous failure
          re-delivers the original grant instead of taking a second
          slot (the server dedups through its lease table + journal).
          [deadline_ms > 0] is the client's remaining budget: the
          server sheds the request ([err_expired]) instead of executing
          it once that many milliseconds have passed since admission —
          work the client has already given up on is dropped before it
          touches the allocator.  [0] = no deadline (and the legacy
          13-byte binary form, which omits the field, decodes as 0) *)
  | Release of { id : int; client : int; name : int }
      (** return [name]; must be held by this connection *)
  | Renew of { id : int; client : int }
      (** heartbeat: extend the lease TTL of every name this
          connection holds *)
  | Stats of { id : int }  (** server + per-shard counters as JSON *)
  | Shutdown of { id : int }  (** graceful drain, then exit *)

type op = Op_acquire | Op_release | Op_renew | Op_stats | Op_shutdown

type response =
  | Acquired of { id : int; name : int; lease_ms : int }
      (** [lease_ms] is the grant's TTL: renew (or release) within it
          or the expiry sweep reclaims the name *)
  | Released of { id : int }
  | Renewed of { id : int; count : int }  (** leases extended *)
  | Stats_reply of { id : int; stats : Jsonu.t }
  | Shutting_down of { id : int }  (** ack of {!Shutdown} *)
  | Busy of { id : int; op : op; retry_after_ms : int }
      (** admission refused under overload: the request was {e not}
          executed and retrying after [retry_after_ms] (plus jitter) is
          the contract — {!Client.Durable} does this automatically.  On
          the wire this is binary status 2, or JSON [ok=false] with a
          [retry_after_ms] field (code {!err_busy}) *)
  | Error of { id : int; op : op; code : int; msg : string }

(** {1 Error codes} *)

val err_proto : int
(** malformed or inapplicable request *)

val err_capacity : int
(** shard namespace exhausted (overload) *)

val err_not_held : int
(** releasing a name this session does not hold *)

val err_shutdown : int
(** server is draining; no new acquires *)

val err_internal : int
(** the server could not make the operation durable (journal append
    failed); the grant was rolled back and the slot returned *)

val err_busy : int
(** admission refused under overload — the code carried by {!Busy}
    frames in JSON mode *)

val err_expired : int
(** the request's [deadline_ms] budget ran out before the server
    reached it; shed, never executed *)

val max_frame : int
(** Upper bound on a binary payload and on a JSON line (64 KiB).  A
    length prefix above this is corruption by construction — the codec
    rejects it instead of allocating attacker-controlled buffers. *)

val request_id : request -> int
val request_op : request -> op
val response_id : response -> int
val op_string : op -> string

(** {1 Binary primitives}

    Big-endian fixed-width fields, shared with the journal codec
    ({!Service.Journal}) so both formats frame bytes identically. *)

val add_u8 : Buffer.t -> int -> unit
val add_u16 : Buffer.t -> int -> unit
val add_u32 : Buffer.t -> int -> unit
val get_u8 : Bytes.t -> int -> int
val get_u16 : Bytes.t -> int -> int
val get_u32 : Bytes.t -> int -> int

(** {1 Encoding} *)

val encode_request : mode -> Buffer.t -> request -> unit
val encode_response : mode -> Buffer.t -> response -> unit

(** {1 Incremental decoding} *)

type 'a step =
  | Frame of 'a * int
      (** a complete frame and how many bytes it consumed *)
  | Need_more  (** no complete frame in the buffer yet *)
  | Corrupt of string
      (** unrecoverable framing damage; close the connection *)

val decode_request : mode -> Bytes.t -> pos:int -> len:int -> request step
(** [decode_request mode buf ~pos ~len] reads one frame from
    [buf.[pos, pos+len)].  Any strict prefix of a valid frame yields
    {!Need_more}, never {!Corrupt} — partial reads are normal. *)

val decode_response : mode -> Bytes.t -> pos:int -> len:int -> response step
