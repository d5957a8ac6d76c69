type t = {
  fd : Unix.file_descr;
  mode : Wire.mode;
  mutable next : int;
  out : Buffer.t;  (* encoded, unsent request bytes *)
  mutable buf : Bytes.t;  (* response bytes awaiting a full frame *)
  mutable start : int;
  mutable fill : int;
  scratch : Bytes.t;
}

type failure =
  | Transport of string
  | Remote of { op : Wire.op; code : int; msg : string }
  | Busy of { op : Wire.op; retry_after_ms : int }

let failure_message = function
  | Transport msg -> msg
  | Remote { op; code; msg } ->
    Printf.sprintf "%s failed: %s (code %d)" (Wire.op_string op) msg code
  | Busy { op; retry_after_ms } ->
    Printf.sprintf "%s refused: server busy, retry after %dms"
      (Wire.op_string op) retry_after_ms

let connect ?(mode = Wire.Binary) ~path () =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_UNIX path) with
  | () ->
    (* Non-blocking, or the daemon's read-pausing backpressure deadlocks
       a busy client: the daemon stops reading until the client drains
       responses, the socket send buffer fills, and a blocking [post]
       would then wedge the client so it never reads again — each side
       waiting out the other until the stall watchdog cuts the line.
       Every send/recv path here already selects before it writes or
       reads, so EAGAIN is handled, never surfaced. *)
    Unix.set_nonblock fd;
    Ok
      {
        fd;
        mode;
        next = 0;
        out = Buffer.create 256;
        buf = Bytes.create 4096;
        start = 0;
        fill = 0;
        scratch = Bytes.create 65536;
      }
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "connect %s: %s" path (Unix.error_message e))

let probe path =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (ADDR_UNIX path) with
      | () -> `Live
      | exception Unix.Unix_error (ECONNREFUSED, _, _) -> `Stale
      | exception Unix.Unix_error (ENOENT, _, _) -> `Gone
      | exception Unix.Unix_error (e, _, _) -> `Error (Unix.error_message e))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
let fd t = t.fd

let fresh_id t =
  let id = t.next in
  t.next <- (id + 1) land 0xffffffff;
  id

(* ------------------------------------------------------------------ *)
(* Sending *)

let try_flush t =
  let s = Buffer.contents t.out in
  let len = String.length s in
  if len > 0 then begin
    (* repro-lint: allow journal-write — client socket, not a journal fd *)
    match Unix.write_substring t.fd s 0 len with
    | n ->
      Buffer.clear t.out;
      if n < len then Buffer.add_substring t.out s n (len - n)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  end

let post t req =
  Wire.encode_request t.mode t.out req;
  (* Opportunistic only: a hard send error (EPIPE after a daemon crash,
     ECONNRESET) leaves the bytes buffered and is surfaced as a typed
     failure by the next [flush]/[recv], which meets the same broken
     socket — never as a raw exception past the retry machinery. *)
  try try_flush t with Unix.Unix_error _ -> ()

let pending_out t = Buffer.length t.out > 0

(* One non-blocking flush attempt.  [post] already flushes
   opportunistically, but a send queue that met EAGAIN stays populated
   until the {e next} post — a loop that stops posting (drain) must be
   able to keep pushing residue out without blocking its read side. *)
let flush_nb t = try try_flush t with Unix.Unix_error _ -> ()

let flush t =
  try
    while pending_out t do
      ignore (Unix.select [] [ t.fd ] [] (-1.));
      try_flush t
    done;
    Ok ()
  with Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "flush: %s" (Unix.error_message e))

(* ------------------------------------------------------------------ *)
(* Receiving *)

let reserve t extra =
  let live = t.fill - t.start in
  if t.fill + extra > Bytes.length t.buf then begin
    let needed = live + extra in
    let target =
      let n = ref (Bytes.length t.buf) in
      while !n < needed do
        n := !n * 2
      done;
      !n
    in
    let dst =
      if target = Bytes.length t.buf then t.buf else Bytes.create target
    in
    Bytes.blit t.buf t.start dst 0 live;
    t.buf <- dst;
    t.start <- 0;
    t.fill <- live
  end

let decode_one t =
  match Wire.decode_response t.mode t.buf ~pos:t.start ~len:(t.fill - t.start) with
  | Wire.Frame (r, consumed) ->
    t.start <- t.start + consumed;
    if t.start = t.fill then begin
      t.start <- 0;
      t.fill <- 0
    end;
    Ok (Some r)
  | Wire.Need_more -> Ok None
  | Wire.Corrupt msg -> Error (Printf.sprintf "corrupt response stream: %s" msg)

(* [timeout = 0.] still performs one poll-and-read round, so callers
   can drain a readable fd with repeated zero-timeout calls.  The
   deadline is monotonic: a wall-clock step must neither fire every
   in-flight timeout at once nor park one forever. *)
let recv t ~timeout =
  let deadline = Mono.now () +. timeout in
  let rec go ~first =
    match decode_one t with
    | Ok (Some _) as r -> r
    | Error _ as e -> e
    | Ok None -> (
      let left = deadline -. Mono.now () in
      let left = if first then Float.max left 0. else left in
      if left < 0. then Ok None
      else
        match Unix.select [ t.fd ] [] [] left with
        | exception Unix.Unix_error (EINTR, _, _) -> go ~first
        | [], _, _ -> Ok None
        | _ -> (
          match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            go ~first:false
          | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "read: %s" (Unix.error_message e))
          | 0 -> Error "connection closed by server"
          | n ->
            reserve t n;
            Bytes.blit t.scratch 0 t.buf t.fill n;
            t.fill <- t.fill + n;
            go ~first:false))
  in
  go ~first:true

(* ------------------------------------------------------------------ *)
(* Synchronous calls: one request in flight, its response is the next
   frame (stats/shutdown answer inline; acquire/release per shard stay
   ordered for a single id).  Every call takes a per-request deadline;
   an unanswered deadline is a [Transport] failure, because from the
   caller's seat a silent server and a dead wire are the same event. *)

let roundtrip ?(timeout = 30.) t req =
  post t req;
  match flush t with
  | Error e -> Error (Transport e)
  | Ok () -> (
    let rec await () =
      match recv t ~timeout with
      | Error e -> Error (Transport e)
      | Ok None -> Error (Transport "timed out waiting for response")
      | Ok (Some r) ->
        if Wire.response_id r = Wire.request_id req then Ok r else await ()
    in
    await ())

let remote ~op ~code ~msg = Error (Remote { op; code; msg })
let busy ~op ~retry_after_ms = Error (Busy { op; retry_after_ms })

let acquire ?timeout ?(token = 0) ?(deadline_ms = 0) t ~client =
  match
    roundtrip ?timeout t
      (Wire.Acquire { id = fresh_id t; client; token; deadline_ms })
  with
  | Error _ as e -> e
  | Ok (Wire.Acquired { name; _ }) -> Ok name
  | Ok (Wire.Busy { op; retry_after_ms; _ }) -> busy ~op ~retry_after_ms
  | Ok (Wire.Error { op; code; msg; _ }) -> remote ~op ~code ~msg
  | Ok _ -> Error (Transport "unexpected response to acquire")

let release ?timeout t ~client ~name =
  match roundtrip ?timeout t (Wire.Release { id = fresh_id t; client; name }) with
  | Error _ as e -> e
  | Ok (Wire.Released _) -> Ok ()
  | Ok (Wire.Busy { op; retry_after_ms; _ }) -> busy ~op ~retry_after_ms
  | Ok (Wire.Error { op; code; msg; _ }) -> remote ~op ~code ~msg
  | Ok _ -> Error (Transport "unexpected response to release")

let renew ?timeout t ~client =
  match roundtrip ?timeout t (Wire.Renew { id = fresh_id t; client }) with
  | Error _ as e -> e
  | Ok (Wire.Renewed { count; _ }) -> Ok count
  | Ok (Wire.Busy { op; retry_after_ms; _ }) -> busy ~op ~retry_after_ms
  | Ok (Wire.Error { op; code; msg; _ }) -> remote ~op ~code ~msg
  | Ok _ -> Error (Transport "unexpected response to renew")

let stats ?timeout t =
  match roundtrip ?timeout t (Wire.Stats { id = fresh_id t }) with
  | Error _ as e -> e
  | Ok (Wire.Stats_reply { stats; _ }) -> Ok stats
  | Ok (Wire.Busy { op; retry_after_ms; _ }) -> busy ~op ~retry_after_ms
  | Ok (Wire.Error { op; code; msg; _ }) -> remote ~op ~code ~msg
  | Ok _ -> Error (Transport "unexpected response to stats")

let stats_once ~path =
  match connect ~path () with
  | Error _ as e -> e
  | Ok c -> (
    let r = stats c in
    close c;
    match r with
    | Error f -> Error (failure_message f)
    | Ok j -> (
      match Jsonu.obj j with
      | fields -> Ok fields
      | exception Jsonu.Malformed -> Error "stats reply is not an object"))

let audit_dir dir =
  let audit (file, state) =
    let pf fmt = Printf.sprintf ("%s: " ^^ fmt) file in
    let get read fields key default =
      try read fields key with Jsonu.Malformed -> default
    in
    match state with
    | `Stale ->
      [
        `Problem
          (pf "stale socket file — the daemon behind it crashed (a graceful \
               drain unlinks its socket); remove it or let renamed reclaim it");
      ]
    | `Gone ->
      [ `Problem (pf "socket probe failed: %s" (Unix.error_message ENOENT)) ]
    | `Error e -> [ `Problem (pf "socket probe failed: %s" e) ]
    | `Live ->
      (* Overload telemetry: a queue peak past the admission bound means
         the bound is not enforced. *)
      let overload =
        match stats_once ~path:(Filename.concat dir file) with
        | Ok f when List.mem_assoc "overload" f ->
          let ov = Jsonu.obj (List.assoc "overload" f) in
          let peak = get Jsonu.int_ f "queue_peak" 0 in
          let bound = get Jsonu.int_ ov "queue_bound" max_int in
          let level = get Jsonu.str ov "level" "healthy" in
          (if peak <= bound then []
           else
             [
               `Problem
                 (pf "daemon reports queue peak %d past its %d admission \
                      bound — queues are growing without bound" peak bound);
             ])
          @
          if level = "healthy" then []
          else
            [ `Note (pf "daemon is %s (deepest queue seen %d/%d)" level peak bound) ]
        | _ -> []
      in
      `Note (pf "a live renamed daemon is serving") :: overload
  in
  let sockets =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sock")
    |> List.sort compare
    |> List.map (fun f -> (f, probe (Filename.concat dir f)))
  in
  (List.concat_map audit sockets, List.exists (fun (_, p) -> p = `Live) sockets)

let shutdown ?timeout t =
  match roundtrip ?timeout t (Wire.Shutdown { id = fresh_id t }) with
  | Error _ as e -> e
  | Ok (Wire.Shutting_down _) -> Ok ()
  | Ok (Wire.Busy { op; retry_after_ms; _ }) -> busy ~op ~retry_after_ms
  | Ok (Wire.Error { op; code; msg; _ }) -> remote ~op ~code ~msg
  | Ok _ -> Error (Transport "unexpected response to shutdown")

(* ------------------------------------------------------------------ *)
(* Durable connections: reconnect + retry under transport failure. *)

module Durable = struct
  type conn = {
    path : string;
    mode : Wire.mode;
    attempts : int;
    base : float;
    cap : float;
    timeout : float;
    rng : Prng.Splitmix.t;
    mutable link : t option;
    mutable reconnects : int;
  }

  let create ?(mode = Wire.Binary) ?(attempts = 8) ?(backoff_base = 0.02)
      ?(backoff_cap = 1.0) ?(timeout = 30.) ~path ~seed () =
    {
      path;
      mode;
      attempts = max 1 attempts;
      base = backoff_base;
      cap = backoff_cap;
      timeout;
      rng = Prng.Splitmix.of_int seed;
      link = None;
      reconnects = 0;
    }

  let reconnects c = c.reconnects

  let drop c =
    match c.link with
    | Some t ->
      close t;
      c.link <- None
    | None -> ()

  let close = drop

  (* Capped exponential backoff with multiplicative jitter in
     [0.5, 1.0]: after a daemon restart every client retries, and the
     jitter keeps the herd from arriving as one burst. *)
  let backoff c k =
    let d = Float.min c.cap (c.base *. (2. ** float_of_int k)) in
    let j = 0.5 +. (float_of_int (Prng.Splitmix.int c.rng 1000) /. 2000.) in
    Unix.sleepf (d *. j)

  (* Server-directed backoff for [Busy]: the [retry_after_ms] hint is
     the floor, the capped exponential is the growth schedule across
     repeated refusals, and the same jitter keeps the refused herd from
     returning in phase. *)
  let backoff_busy c k ~retry_after_ms =
    let d =
      Float.min c.cap
        (Float.max
           (float_of_int retry_after_ms /. 1000.)
           (c.base *. (2. ** float_of_int k)))
    in
    let j = 0.5 +. (float_of_int (Prng.Splitmix.int c.rng 1000) /. 2000.) in
    Unix.sleepf (d *. j)

  let link c =
    match c.link with
    | Some t -> Ok t
    | None -> (
      match connect ~mode:c.mode ~path:c.path () with
      | Ok t ->
        c.link <- Some t;
        Ok t
      | Error e -> Error (Transport e))

  (* Run [f] against a live link, reconnecting and retrying on
     [Transport] failures.  [Remote] failures are the server's verdict
     and never retried.  [f] sees the attempt index so idempotence
     policy (e.g. release's not-held-after-retry) can depend on whether
     the first try may already have landed. *)
  let with_retry c f =
    let rec go k =
      let again e =
        if k + 1 >= c.attempts then Error e
        else begin
          drop c;
          c.reconnects <- c.reconnects + 1;
          backoff c k;
          go (k + 1)
        end
      in
      match link c with
      | Error e -> again e
      | Ok t -> (
        match f t ~attempt:k with
        | Ok _ as r -> r
        | Error (Remote _) as r -> r
        | Error (Busy { retry_after_ms; _ } as e) ->
          (* The wire is healthy — the server refused admission.  Honor
             the retry-after contract on the same link: no drop, no
             reconnect counted. *)
          if k + 1 >= c.attempts then Error e
          else begin
            backoff_busy c k ~retry_after_ms;
            go (k + 1)
          end
        | Error (Transport _ as e) -> again e)
    in
    go 0

  let acquire ?deadline_ms c ~client =
    (* One token per logical acquire, reused verbatim across retries:
       if the grant landed but its reply died with the connection, the
       server's lease table still binds the token and re-delivers the
       same name instead of burning a second slot. *)
    let token = 1 + Prng.Splitmix.int c.rng 0xfffffffe in
    (* The whole logical acquire — every retry, every backoff sleep —
       spends one budget, and each attempt stamps what is left of it on
       the wire so the server can shed work we have already abandoned. *)
    let budget_s =
      match deadline_ms with
      | Some ms when ms > 0 -> float_of_int ms /. 1000.
      | _ -> c.timeout
    in
    let overall = Mono.now () +. budget_s in
    let exception Budget_exhausted in
    match
      with_retry c (fun t ~attempt:_ ->
          let left = overall -. Mono.now () in
          if left <= 0. then raise Budget_exhausted
          else
            acquire
              ~timeout:(Float.min c.timeout left)
              ~token
              ~deadline_ms:(max 1 (int_of_float (left *. 1000.)))
              t ~client)
    with
    | r -> r
    | exception Budget_exhausted ->
      Error (Transport "acquire budget exhausted before completion")

  let release c ~client ~name =
    with_retry c (fun t ~attempt ->
        match release ~timeout:c.timeout t ~client ~name with
        | Error (Remote { code; _ })
          when code = Wire.err_not_held && attempt > 0 ->
          (* Ambiguous retry: the first attempt may have released the
             name before its reply was lost.  Not-held after a
             reconnect is success, not failure. *)
          Ok ()
        | r -> r)

  let renew c ~client =
    with_retry c (fun t ~attempt:_ -> renew ~timeout:c.timeout t ~client)

  let stats c = with_retry c (fun t ~attempt:_ -> stats ~timeout:c.timeout t)
end
