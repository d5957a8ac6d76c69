type hold = Const of float | Exponential of float

type config = {
  path : string;
  mode : Wire.mode;
  conns : int;
  clients : int;
  rate : float;
  duration_s : float;
  hold : hold;
  seed : int;
  reconnect_attempts : int;
  reconnect_backoff : float;
  deadline_ms : int;
  drain_timeout_s : float;
  log : string -> unit;
}

let default_config ~path =
  {
    path;
    mode = Wire.Binary;
    conns = 4;
    clients = 64;
    rate = 1000.;
    duration_s = 5.;
    hold = Exponential 0.001;
    seed = 1;
    reconnect_attempts = 8;
    reconnect_backoff = 0.05;
    deadline_ms = 0;
    drain_timeout_s = 10.;
    log = ignore;
  }

type result = {
  wall_s : float;
  offered : int;
  acquired : int;
  shed : int;
  expired : int;
  acquire_failures : int;
  released : int;
  errors : int;
  timeouts : int;
  violations : int;
  leaked : int;
  reconnects : int;
  dropped : int;
  abandoned : int;
  throughput : float;
  goodput : float;
  drain_complete : bool;
  latency : Stats.Hdr.t;
}

(* Scheduled releases, ordered by due time. *)
module Heap = struct
  type entry = { at : float; name : int; client : int; conn : int; gen : int }
  type t = { mutable a : entry array; mutable len : int }

  let dummy = { at = 0.; name = 0; client = 0; conn = 0; gen = 0 }
  let create () = { a = Array.make 64 dummy; len = 0 }
  let is_empty h = h.len = 0
  let peek h = h.a.(0)

  let push h e =
    if h.len = Array.length h.a then begin
      let b = Array.make (2 * h.len) dummy in
      Array.blit h.a 0 b 0 h.len;
      h.a <- b
    end;
    let i = ref h.len in
    h.len <- h.len + 1;
    h.a.(!i) <- e;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      if h.a.(!i).at < h.a.(p).at then begin
        let tmp = h.a.(p) in
        h.a.(p) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := p
      end
      else continue := false
    done

  let pop h =
    let top = h.a.(0) in
    h.len <- h.len - 1;
    h.a.(0) <- h.a.(h.len);
    h.a.(h.len) <- dummy;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.len && h.a.(l).at < h.a.(!s).at then s := l;
      if r < h.len && h.a.(r).at < h.a.(!s).at then s := r;
      if !s <> !i then begin
        let tmp = h.a.(!s) in
        h.a.(!s) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !s
      end
      else continue := false
    done;
    top
end

type pending =
  | Await_acquire of { sent : float; client : int }
  | Await_release of { name : int }

type st = {
  cfg : config;
  conns : Client.t option array;  (* [None] = slot down, reconnecting *)
  gen : int array;  (* bumped at each slot death: stale heap entries miss *)
  fails : int array;  (* consecutive failed reconnect attempts *)
  retry_at : float array;
  backlog : float Queue.t;  (* scheduled arrivals owed while all slots down *)
  rng : Prng.Splitmix.t;
  pending : (int * int, pending) Hashtbl.t;  (* (conn, id) -> op *)
  held : (int, int * int) Hashtbl.t;  (* name -> (conn, gen) that holds it *)
  releasing : (int, int) Hashtbl.t;  (* name -> releases in flight *)
  heap : Heap.t;
  latency : Stats.Hdr.t;
  mutable rr : int;  (* round-robin cursor: conns and client ids *)
  mutable win_end : float;  (* end of the offered window (monotonic) *)
  mutable offered : int;
  mutable acquired : int;
  mutable acquired_win : int;  (* grants received inside the window *)
  mutable shed : int;  (* [Wire.Busy] admission refusals *)
  mutable expired : int;  (* deadline passed: locally or [err_expired] *)
  mutable acquire_failures : int;
  mutable released : int;
  mutable errors : int;
  mutable violations : int;
  mutable reconnects : int;
  mutable dropped : int;
  mutable abandoned : int;
  mutable failed : string option;
}

(* Monotonic throughout: arrival schedules, latency, and stamped
   deadlines must not move when the wall clock steps. *)
let now () = Mono.now ()
let fail st e = if st.failed = None then st.failed <- Some e

let hold_sample st =
  match st.cfg.hold with
  | Const s -> s
  | Exponential mean ->
    if mean <= 0. then 0.
    else Prng.Dist.exponential_sample st.rng ~rate:(1. /. mean)

let retry_delay st slot =
  let d =
    Float.min 1.0
      (st.cfg.reconnect_backoff *. (2. ** float_of_int st.fails.(slot)))
  in
  let jitter = 0.5 +. (float_of_int (Prng.Splitmix.int st.rng 1000) /. 2000.) in
  d *. jitter

(* A slot's connection died (reset, close, corrupt stream).  Survive
   it: its in-flight operations are gone (counted [dropped], not
   errors — their fate belongs to the daemon's journal, not to us),
   its held names are forgotten (counted [abandoned]; the server side
   reclaims them by disconnect-drain or lease expiry), and the slot
   goes into backed-off reconnect. *)
let kill_conn st slot reason =
  match st.conns.(slot) with
  | None -> ()
  | Some c ->
    Client.close c;
    st.conns.(slot) <- None;
    st.gen.(slot) <- st.gen.(slot) + 1;
    st.reconnects <- st.reconnects + 1;
    st.fails.(slot) <- 0;
    st.retry_at.(slot) <- now () +. retry_delay st slot;
    let stale =
      Hashtbl.to_seq st.pending
      |> Seq.filter (fun ((s, _), _) -> s = slot)
      |> List.of_seq
    in
    List.iter
      (fun (key, op) ->
        Hashtbl.remove st.pending key;
        st.dropped <- st.dropped + 1;
        match op with
        | Await_release { name } -> (
          match Hashtbl.find_opt st.releasing name with
          | Some n when n > 1 -> Hashtbl.replace st.releasing name (n - 1)
          | Some _ -> Hashtbl.remove st.releasing name
          | None -> ())
        | Await_acquire _ -> ())
      stale;
    let mine =
      Hashtbl.to_seq st.held
      |> Seq.filter_map (fun (name, (s, _)) ->
             if s = slot then Some name else None)
      |> List.of_seq
    in
    List.iter (fun name -> Hashtbl.remove st.held name) mine;
    st.abandoned <- st.abandoned + List.length mine;
    st.cfg.log
      (Printf.sprintf
         "conn %d lost (%s): %d op(s) dropped, %d held name(s) abandoned"
         slot reason (List.length stale) (List.length mine))

let try_reconnects st =
  let t = now () in
  Array.iteri
    (fun slot c ->
      match c with
      | Some _ -> ()
      | None ->
        if t >= st.retry_at.(slot) then (
          match Client.connect ~mode:st.cfg.mode ~path:st.cfg.path () with
          | Ok link ->
            st.conns.(slot) <- Some link;
            st.fails.(slot) <- 0;
            st.cfg.log (Printf.sprintf "conn %d reconnected" slot)
          | Error e ->
            st.fails.(slot) <- st.fails.(slot) + 1;
            if st.fails.(slot) >= st.cfg.reconnect_attempts then
              fail st
                (Printf.sprintf "conn %d: gave up after %d reconnect attempts (%s)"
                   slot st.fails.(slot) e)
            else st.retry_at.(slot) <- t +. retry_delay st slot))
    st.conns

(* [at] is the scheduled arrival, not the post instant: latency is
   measured from when the operation {e should} have started, so
   catch-up bursts — including the burst after an outage — cannot hide
   queueing delay (no coordinated omission).  False when no slot is
   up; the arrival goes to the backlog keeping its schedule. *)
let try_post_acquire st ~at =
  let n = Array.length st.conns in
  let rec pick k =
    if k = n then None
    else
      let slot = (st.rr + k) mod n in
      match st.conns.(slot) with Some c -> Some (slot, c) | None -> pick (k + 1)
  in
  match pick 0 with
  | None -> false
  | Some (slot, c) ->
    (* The budget runs from the scheduled arrival: a request that sat
       in the backlog through an outage has already spent part (or
       all) of it.  Spent budgets are shed here — posting work the
       client has given up on would only deepen the overload. *)
    let deadline_ms =
      if st.cfg.deadline_ms <= 0 then Some 0
      else
        let left =
          st.cfg.deadline_ms - int_of_float ((now () -. at) *. 1000.)
        in
        if left <= 0 then None else Some (max 1 left)
    in
    (match deadline_ms with
    | None ->
      st.offered <- st.offered + 1;
      st.expired <- st.expired + 1
    | Some deadline_ms ->
      let client = st.rr mod st.cfg.clients in
      st.rr <- st.rr + 1;
      let id = Client.fresh_id c in
      Hashtbl.replace st.pending (slot, id)
        (Await_acquire { sent = at; client });
      Client.post c (Wire.Acquire { id; client; token = 0; deadline_ms });
      st.offered <- st.offered + 1);
    true

let flush_backlog st =
  let continue = ref true in
  while !continue && not (Queue.is_empty st.backlog) do
    if try_post_acquire st ~at:(Queue.peek st.backlog) then
      ignore (Queue.pop st.backlog)
    else continue := false
  done

let post_release st (e : Heap.entry) =
  match Hashtbl.find_opt st.held e.name with
  | Some (slot, g) when slot = e.conn && g = e.gen -> (
    match st.conns.(slot) with
    | Some c when st.gen.(slot) = g ->
      Hashtbl.remove st.held e.name;
      let inflight =
        Option.value (Hashtbl.find_opt st.releasing e.name) ~default:0
      in
      Hashtbl.replace st.releasing e.name (inflight + 1);
      let id = Client.fresh_id c in
      Hashtbl.replace st.pending (slot, id) (Await_release { name = e.name });
      Client.post c (Wire.Release { id; client = e.client; name = e.name })
    | _ -> ())
  | _ -> ()  (* abandoned with its connection, or already released *)

let release_done st name =
  match Hashtbl.find_opt st.releasing name with
  | Some n when n > 1 -> Hashtbl.replace st.releasing name (n - 1)
  | Some _ -> Hashtbl.remove st.releasing name
  | None -> ()

let on_response st ~conn ~at r =
  let key = (conn, Wire.response_id r) in
  match Hashtbl.find_opt st.pending key with
  | None ->
    (* A reply we never asked for; count it, something is off. *)
    st.errors <- st.errors + 1
  | Some entry -> (
    Hashtbl.remove st.pending key;
    match (entry, r) with
    | Await_acquire { sent; client }, Wire.Acquired { name; _ } ->
      st.acquired <- st.acquired + 1;
      if at <= st.win_end then st.acquired_win <- st.acquired_win + 1;
      Stats.Hdr.record st.latency
        (int_of_float (Float.max 0. ((at -. sent) *. 1e9)));
      if Hashtbl.mem st.held name then
        (* Held and no release in flight: two live grants of one name. *)
        st.violations <- st.violations + 1
      else begin
        Hashtbl.replace st.held name (conn, st.gen.(conn));
        Heap.push st.heap
          {
            at = at +. hold_sample st;
            name;
            client;
            conn;
            gen = st.gen.(conn);
          }
      end
    | Await_acquire _, Wire.Busy _ ->
      (* Admission refused: shed load, not a failure of either side. *)
      st.shed <- st.shed + 1
    | Await_acquire _, Wire.Error { code; _ } ->
      if code = Wire.err_capacity then
        st.acquire_failures <- st.acquire_failures + 1
      else if code = Wire.err_expired then st.expired <- st.expired + 1
      else st.errors <- st.errors + 1
    | Await_release { name }, Wire.Released _ ->
      st.released <- st.released + 1;
      release_done st name
    | Await_release { name }, Wire.Error _ ->
      st.errors <- st.errors + 1;
      release_done st name
    | _ -> st.errors <- st.errors + 1)

(* Drain every decoded response on every live connection; a recv error
   kills that slot, never the run. *)
let pump st =
  let n = Array.length st.conns in
  let rec one i =
    if i < n then
      match st.conns.(i) with
      | None -> one (i + 1)
      | Some c -> (
        match Client.recv c ~timeout:0. with
        | Error e ->
          kill_conn st i e;
          one (i + 1)
        | Ok None -> one (i + 1)
        | Ok (Some r) ->
          on_response st ~conn:i ~at:(now ()) r;
          one i)
  in
  one 0

let run (cfg : config) =
  if cfg.conns < 1 then invalid_arg "Load_gen.run: conns < 1";
  if cfg.clients < 1 then invalid_arg "Load_gen.run: clients < 1";
  if cfg.rate <= 0. then invalid_arg "Load_gen.run: rate <= 0";
  let connected = ref [] in
  let connect_all () =
    let rec go i =
      if i = cfg.conns then Ok ()
      else
        match Client.connect ~mode:cfg.mode ~path:cfg.path () with
        | Error _ as e -> e
        | Ok c ->
          connected := c :: !connected;
          go (i + 1)
    in
    go 0
  in
  match connect_all () with
  | Error e ->
    List.iter Client.close !connected;
    Error e
  | Ok () ->
    let st =
      {
        cfg;
        conns = Array.of_list (List.rev_map Option.some !connected);
        gen = Array.make cfg.conns 0;
        fails = Array.make cfg.conns 0;
        retry_at = Array.make cfg.conns 0.;
        backlog = Queue.create ();
        rng = Prng.Splitmix.of_int cfg.seed;
        pending = Hashtbl.create 1024;
        held = Hashtbl.create 1024;
        releasing = Hashtbl.create 64;
        heap = Heap.create ();
        latency = Stats.Hdr.create ();
        rr = 0;
        win_end = infinity;
        offered = 0;
        acquired = 0;
        acquired_win = 0;
        shed = 0;
        expired = 0;
        acquire_failures = 0;
        released = 0;
        errors = 0;
        violations = 0;
        reconnects = 0;
        dropped = 0;
        abandoned = 0;
        failed = None;
      }
    in
    let live_fds () =
      Array.to_list st.conns
      |> List.filter_map (Option.map Client.fd)
    in
    let t_start = now () in
    let t_end = t_start +. cfg.duration_s in
    st.win_end <- t_end;
    let drain_deadline = t_end +. Float.max 0. cfg.drain_timeout_s in
    let drain_cut = ref false in
    let next_arrival =
      ref (t_start +. Prng.Dist.exponential_sample st.rng ~rate:cfg.rate)
    in
    let finished = ref false in
    while (not !finished) && st.failed = None do
      let t = now () in
      let draining = t >= t_end in
      try_reconnects st;
      (* Post every arrival that has come due (open loop: the schedule,
         not completions, decides); owed arrivals from an outage first,
         keeping their original schedule.  The schedule ends at [t_end]
         — owed arrivals from before it are still offered afterwards
         (their budgets ran from the scheduled time, so stale ones shed
         locally) — and the catch-up is chunked: at a rate beyond what
         this loop can post, [now ()] outruns the schedule forever and
         an unbounded catch-up would never break to pump responses. *)
      flush_backlog st;
      let burst = ref 0 in
      while !next_arrival <= now () && !next_arrival < t_end && !burst < 4096 do
        incr burst;
        if not (try_post_acquire st ~at:!next_arrival) then
          Queue.push !next_arrival st.backlog;
        next_arrival :=
          !next_arrival +. Prng.Dist.exponential_sample st.rng ~rate:cfg.rate
      done;
      (* Post due releases; when draining, everything still held is due. *)
      while
        (not (Heap.is_empty st.heap))
        && ((Heap.peek st.heap).at <= now () || draining)
      do
        post_release st (Heap.pop st.heap)
      done;
      (* Requests whose flush met EAGAIN are parked in the client send
         queues; push them every tick or a quiet drain never completes
         them. *)
      Array.iter
        (function Some c -> Client.flush_nb c | None -> ())
        st.conns;
      pump st;
      if draining then begin
        if
          !next_arrival >= t_end
          && Hashtbl.length st.pending = 0
          && Heap.is_empty st.heap
          && Queue.is_empty st.backlog
        then finished := true
        else if now () > drain_deadline then begin
          cfg.log
            (Printf.sprintf
               "drain cut short at %.1fs with %d operation(s) unanswered, \
                %d never posted"
               cfg.drain_timeout_s
               (Hashtbl.length st.pending)
               (Queue.length st.backlog));
          st.dropped <- st.dropped + Queue.length st.backlog;
          Queue.clear st.backlog;
          drain_cut := true;
          finished := true
        end
      end;
      if (not !finished) && st.failed = None then begin
        let t = now () in
        let until_arrival = if draining then 0.05 else !next_arrival -. t in
        let until_release =
          if Heap.is_empty st.heap then 0.05 else (Heap.peek st.heap).at -. t
        in
        let timeout =
          Float.max 0. (Float.min 0.05 (Float.min until_arrival until_release))
        in
        match Unix.select (live_fds ()) [] [] timeout with
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | exception Unix.Unix_error (EBADF, _, _) -> ()
        | _ -> ()
      end
    done;
    let timeouts = Hashtbl.length st.pending in
    let res =
      match st.failed with
      | Some e -> Error e
      | None ->
        (* Everything we still held has been released; the server's
           taken count is leak plus whatever orphan leases a recovered
           daemon has not yet expired. *)
        let leaked =
          if timeouts > 0 then -1
          else
            let probe c =
              match Client.stats c with
              | Error e ->
                cfg.log
                  (Printf.sprintf "final stats failed: %s"
                     (Client.failure_message e));
                -1
              | Ok j -> (
                match Jsonu.int_ (Jsonu.obj j) "taken" with
                | v -> v
                | exception Jsonu.Malformed -> -1)
            in
            match
              Array.to_list st.conns |> List.filter_map Fun.id
            with
            | c :: _ -> probe c
            | [] -> (
              match Client.connect ~mode:cfg.mode ~path:cfg.path () with
              | Ok c ->
                let v = probe c in
                Client.close c;
                v
              | Error e ->
                cfg.log (Printf.sprintf "final stats failed: %s" e);
                -1)
        in
        let wall_s = now () -. t_start in
        Ok
          {
            wall_s;
            offered = st.offered;
            acquired = st.acquired;
            shed = st.shed;
            expired = st.expired;
            acquire_failures = st.acquire_failures;
            released = st.released;
            errors = st.errors;
            timeouts;
            violations = st.violations;
            leaked;
            reconnects = st.reconnects;
            dropped = st.dropped;
            abandoned = st.abandoned;
            throughput =
              float_of_int (st.acquired + st.released)
              /. Float.max 1e-9 wall_s;
            (* Steady-state service rate: grants received inside the
               offered window, over the window.  Drain-served grants
               are excluded from the numerator — the drain runs with no
               arrival load competing, so counting it would let short
               runs overstate capacity — and wall (which includes the
               drain) would understate it as the denominator. *)
            goodput =
              float_of_int st.acquired_win /. Float.max 1e-9 cfg.duration_s;
            drain_complete = not !drain_cut;
            latency = st.latency;
          }
    in
    Array.iter (function Some c -> Client.close c | None -> ()) st.conns;
    res
