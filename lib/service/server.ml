(* Every deadline, lease TTL and latency measurement here runs on the
   monotonic clock (Mono.now): a wall-clock step must never fire or
   stall a timeout.  Wall-clock never enters experiment records. *)

type config = {
  socket_path : string;
  shards : int;
  capacity : int;
  seed : int;
  backlog : int;
  max_conns : int;
  lease_ttl_s : float;
  journal_path : string option;
  recover : bool;
  max_queue : int;
  max_out_bytes : int;
  stall_s : float;
  overload : Overload.config option;
  log : string -> unit;
}

let default_config ~socket_path =
  {
    socket_path;
    shards = 2;
    capacity = 4096;
    seed = 1;
    backlog = 64;
    max_conns = 1024;
    lease_ttl_s = 30.;
    journal_path = None;
    recover = false;
    max_queue = 1024;
    max_out_bytes = 262144;
    stall_s = 5.;
    overload = None;
    log = ignore;
  }

type report = {
  conns_served : int;
  requests : int;
  acquires : int;
  releases : int;
  errors : int;
  drained_releases : int;
  renews : int;
  expired_leases : int;
  dedup_hits : int;
  recovered : int;
  shed_busy : int;
  shed_expired : int;
  stalled_conns : int;
  queue_peak : int;
  taken_at_exit : int;
  wall_s : float;
}

let report_clean r = r.taken_at_exit = 0

let recovery_required_prefix = "recovery required:"

let recovery_refused e =
  String.length e >= String.length recovery_required_prefix
  && String.sub e 0 (String.length recovery_required_prefix)
     = recovery_required_prefix

type handle = { flag : bool Atomic.t; wake : Unix.file_descr option Atomic.t }

let create_handle () = { flag = Atomic.make false; wake = Atomic.make None }

(* repro-lint: allow journal-write — self-pipe wake byte, not a journal fd *)
let poke fd = try ignore (Unix.write fd (Bytes.make 1 '!') 0 1) with _ -> ()

let stop h =
  Atomic.set h.flag true;
  match Atomic.get h.wake with None -> () | Some fd -> poke fd

let stop_requested h = Atomic.get h.flag

(* ------------------------------------------------------------------ *)
(* Connections and admitted work *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  session : Session.t;
  mutable closing : bool;  (* close once flushed *)
  mutable dead : bool;  (* fd closed, ledger drained *)
  mutable last_progress : float;
      (* monotonic time the peer last drained bytes; the stall clock *)
}

let out_pending c = Session.out_pending c.session

(* An admitted acquire, waiting in its shard queue for this tick's
   serve pass. *)
type pending = {
  conn : conn;
  id : int;
  client : int;
  token : int;
  deadline : float;  (* absolute monotonic; infinity = none *)
  admitted : float;  (* monotonic admission time, for queue latency *)
}

type phase = Serving | Flushing

type state = {
  cfg : config;
  pool : Shard.t;
  leases : Lease.t;
  journal : Journal.t option;
  recovered : int;  (* grants re-occupied from the journal at boot *)
  handle : handle;
  queues : pending Queue.t array;
      (* admitted acquires per shard: the class the admission bound
         governs.  Every tick's serve pass empties them.  Releases never
         queue — they run at once and relieve pressure — so depth, peak
         and the overload machine all track acquires alone. *)
  wake_r : Unix.file_descr;
  conns : (int, conn) Hashtbl.t;  (* live connections by cid *)
  by_fd : (Unix.file_descr, conn) Hashtbl.t;  (* the same, by fd *)
  started : float;
  scratch : Bytes.t;
  out : Buffer.t;  (* reply encoding scratch *)
  overload : Overload.t;
  mutable listen_fd : Unix.file_descr option;
  mutable phase : phase;
  mutable next_cid : int;
  mutable next_sweep : float;
  mutable conns_served : int;
  mutable requests : int;
  mutable acquires : int;
  mutable releases : int;
  mutable errors : int;
  mutable drained_releases : int;
  mutable renews : int;
  mutable expired_leases : int;
  mutable dedup_hits : int;
  mutable shed_busy : int;
  mutable shed_expired : int;
  mutable stalled_conns : int;
  mutable queue_peak : int;
  mutable flush_deadline : float;
}

let now () = Mono.now ()
let conn_list st = Hashtbl.to_seq_values st.conns |> List.of_seq
let sweep_period st = Float.max 0.01 (Lease.ttl_s st.leases /. 10.)

(* ------------------------------------------------------------------ *)
(* Replies and releases *)

let send_response st c r =
  if not c.dead then begin
    let mode = Option.value (Session.mode c.session) ~default:Wire.Binary in
    Buffer.clear st.out;
    Wire.encode_response mode st.out r;
    Session.queue_out c.session (Buffer.contents st.out);
    (match r with Wire.Error _ -> st.errors <- st.errors + 1 | _ -> ())
  end

let acquire_error id code msg = Wire.Error { id; op = Wire.Op_acquire; code; msg }

(* Return [name]'s cell to the pool. *)
let release_cell st name =
  match Shard.release st.pool ~name with
  | () -> st.releases <- st.releases + 1
  | exception e ->
    st.cfg.log
      (Printf.sprintf "release %d raised %s" name (Printexc.to_string e))

(* Auto-release a name that no live session will ever release (left on
   a dead connection's ledger, or on any ledger at shutdown). *)
let drain_release st name =
  st.drained_releases <- st.drained_releases + 1;
  release_cell st name

(* ------------------------------------------------------------------ *)
(* Admission control *)

let max_queue_depth st =
  Array.fold_left (fun m q -> max m (Queue.length q)) 0 st.queues

let queues_full st =
  Array.for_all (fun q -> Queue.length q >= st.cfg.max_queue) st.queues

(* Oldest-expired-first shed: a full shard queue is relieved of every
   queued acquire whose deadline has already passed (the queue keeps
   arrival order, so expired entries come out oldest first).  They are
   answered [err_expired] — work nobody is waiting for anymore never
   reaches the allocator. *)
let purge_expired st ~shard =
  let t = now () in
  let q = st.queues.(shard) in
  let live = Queue.create () in
  Queue.iter
    (fun p ->
      if t > p.deadline then begin
        st.shed_expired <- st.shed_expired + 1;
        send_response st p.conn
          (acquire_error p.id Wire.err_expired "deadline expired in queue")
      end
      else Queue.push p live)
    q;
  Queue.clear q;
  Queue.transfer live q

(* ------------------------------------------------------------------ *)
(* Journal + lease plumbing *)

let journal_append st r =
  match st.journal with
  | None -> Ok ()
  | Some j -> (
    try
      Journal.append j r;
      Ok ()
    with
    | Engine.Io_fault.Injected m -> Error m
    | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | Sys_error m -> Error m)

(* Remove [name]'s lease and journal the release.  A failed release
   append is tolerated: after recovery the grant comes back as an
   orphan lease and expires one TTL later — a delay, never a
   double-grant. *)
let release_lease st name =
  match Lease.epoch_of st.leases ~name with
  | None -> ()
  | Some epoch -> (
    ignore (Lease.release st.leases ~name ~epoch);
    match journal_append st (Journal.Release { name; epoch }) with
    | Ok () -> ()
    | Error m ->
      st.cfg.log
        (Printf.sprintf
           "journal: release of %d not recorded (%s); lease expiry reclaims \
            it after recovery"
           name m))

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Tear down a connection and return every name on its ledger. *)
let disconnect st c =
  if not c.dead then begin
    c.dead <- true;
    close_fd c.fd;
    Hashtbl.remove st.conns c.cid;
    Hashtbl.remove st.by_fd c.fd;
    Session.clear_out c.session;
    List.iter
      (fun name ->
        Session.note_released c.session name;
        release_lease st name;
        drain_release st name)
      (Session.held c.session)
  end

(* The expiry sweep: the only thing that kills a lease on time grounds.
   A reclaimed name leaves its holder's ledger too, so a late release
   from that client is answered [err_not_held] instead of freeing a
   cell somebody else may have re-won. *)
let sweep st tnow =
  List.iter
    (fun (name, epoch, holder, _token) ->
      st.expired_leases <- st.expired_leases + 1;
      (match Option.bind holder (Hashtbl.find_opt st.conns) with
      | Some c -> Session.note_released c.session name
      | None -> ());
      (match journal_append st (Journal.Expire { name; epoch }) with
      | Ok () -> ()
      | Error m ->
        st.cfg.log
          (Printf.sprintf "journal: expiry of %d not recorded (%s)" name m));
      release_cell st name)
    (Lease.expire_due st.leases ~now:tnow)

(* ------------------------------------------------------------------ *)
(* Request handling *)

let stats_json st =
  let pool_fields = Jsonu.obj (Shard.stats st.pool) in
  let held =
    List.fold_left
      (fun acc c -> acc + Session.held_count c.session)
      0 (conn_list st)
  in
  Jsonu.Obj
    ([ ("kind", Jsonu.Str "renamed-stats"); ("schema", Jsonu.Int 1) ]
    @ pool_fields
    @ [
        ("held_by_sessions", Jsonu.Int held);
        ("leases", Jsonu.Int (Lease.held st.leases));
        ("lease_ttl_ms", Jsonu.Int (Lease.ttl_ms st.leases));
        ("renews", Jsonu.Int st.renews);
        ("expired_leases", Jsonu.Int st.expired_leases);
        ("dedup_hits", Jsonu.Int st.dedup_hits);
        ("recovered", Jsonu.Int st.recovered);
        ("journal", Jsonu.Bool (Option.is_some st.journal));
        ("conns", Jsonu.Int (Hashtbl.length st.conns));
        ("conns_served", Jsonu.Int st.conns_served);
        ("requests", Jsonu.Int st.requests);
        ("shed_busy", Jsonu.Int st.shed_busy);
        ("shed_expired", Jsonu.Int st.shed_expired);
        ("stalled_conns", Jsonu.Int st.stalled_conns);
        ("queue_peak", Jsonu.Int st.queue_peak);
        ( "overload",
          Overload.to_json st.overload ~queue_depth:(max_queue_depth st)
            ~queue_bound:st.cfg.max_queue );
        ("uptime_s", Jsonu.Num (now () -. st.started));
      ])

let handle_request st c (r : Wire.request) =
  st.requests <- st.requests + 1;
  match r with
  | Wire.Acquire { id; client; token; deadline_ms } -> (
    (* Idempotent retry: a nonzero token still bound to a live lease
       re-delivers the original grant — but only when that lease is
       unclaimed (an orphan from recovery or a reply lost in flight to
       a dead connection) or already ours.  A token colliding with
       another live connection's lease is a fresh acquire. *)
    let dedup =
      match Lease.find_token st.leases ~token with
      | None -> None
      | Some (name, epoch) ->
        let ours =
          match Lease.holder_of st.leases ~name with
          | Some None -> true
          | Some (Some h) -> h = c.cid || not (Hashtbl.mem st.conns h)
          | None -> false
        in
        if ours && Lease.rebind st.leases ~now:(now ()) ~name ~epoch ~holder:c.cid
        then Some name
        else None
    in
    match dedup with
    | Some name ->
      st.dedup_hits <- st.dedup_hits + 1;
      Session.note_acquired c.session name;
      send_response st c
        (Wire.Acquired { id; name; lease_ms = Lease.ttl_ms st.leases })
    | None ->
      let shard = Shard.shard_of_client st.pool client in
      let q = st.queues.(shard) in
      st.queue_peak <- max st.queue_peak (Queue.length q);
      let busy () =
        st.shed_busy <- st.shed_busy + 1;
        send_response st c
          (Wire.Busy
             {
               id;
               op = Wire.Op_acquire;
               retry_after_ms =
                 Overload.retry_after_ms st.overload
                   ~queue_depth:(Queue.length q);
             })
      in
      if Overload.level st.overload = Overload.Shedding then
        (* Graceful degradation: while shedding, no new acquire is
           admitted at all, but releases/renews/stats below still
           execute — held names keep draining, which is the path
           back to health. *)
        busy ()
      else begin
        if Queue.length q >= st.cfg.max_queue then purge_expired st ~shard;
        if Queue.length q >= st.cfg.max_queue then busy ()
        else begin
          let t = now () in
          let deadline =
            if deadline_ms > 0 then t +. (float_of_int deadline_ms /. 1000.)
            else infinity
          in
          Queue.push { conn = c; id; client; token; deadline; admitted = t } q
        end
      end)
  | Wire.Release { id; client = _; name } ->
    if Session.holds c.session name then begin
      Session.note_released c.session name;
      release_lease st name;
      release_cell st name;
      send_response st c (Wire.Released { id })
    end
    else
      send_response st c
        (Wire.Error
           {
             id;
             op = Wire.Op_release;
             code = Wire.err_not_held;
             msg = "name not held here";
           })
  | Wire.Renew { id; client = _ } ->
    st.renews <- st.renews + 1;
    let count = Lease.renew st.leases ~now:(now ()) ~holder:c.cid in
    send_response st c (Wire.Renewed { id; count })
  | Wire.Stats { id } ->
    send_response st c (Wire.Stats_reply { id; stats = stats_json st })
  | Wire.Shutdown { id } ->
    send_response st c (Wire.Shutting_down { id });
    stop st.handle

(* One admitted acquire, at pick-up: deadline check, allocator,
   write-ahead grant, reply.  [p.conn] is live: an acquire is admitted
   and served in the same tick, and nothing between the read pass and
   the serve pass disconnects. *)
let serve_acquire st ~shard p =
  let c = p.conn in
  let picked = now () in
  Overload.note_latency st.overload
    (Float.max 0. ((picked -. p.admitted) *. 1000.));
  (* Work the client has already timed out on is shed, not served —
     executing it would burn a slot nobody will release promptly. *)
  if picked > p.deadline then begin
    st.shed_expired <- st.shed_expired + 1;
    send_response st c
      (acquire_error p.id Wire.err_expired "deadline expired before execution")
  end
  else
    let name =
      try Shard.acquire st.pool ~shard ~client:p.client
      with e ->
        st.cfg.log
          (Printf.sprintf "shard %d: acquire raised %s" shard
             (Printexc.to_string e));
        None
    in
    match name with
    | None ->
      send_response st c
        (acquire_error p.id Wire.err_capacity "namespace exhausted")
    | Some name -> (
      (* Write-ahead: the grant is journaled before the client can ever
         see [Acquired], so an acknowledged name is always recovered.
         If the append fails the grant never happened — roll the lease
         back, return the slot, tell the client the truth. *)
      let epoch =
        Lease.grant st.leases ~now:(now ()) ~name ~holder:(Some c.cid)
          ~token:p.token
      in
      match
        journal_append st
          (Journal.Grant { name; epoch; client = p.client; token = p.token })
      with
      | Ok () ->
        st.acquires <- st.acquires + 1;
        Session.note_acquired c.session name;
        send_response st c
          (Wire.Acquired { id = p.id; name; lease_ms = Lease.ttl_ms st.leases })
      | Error m ->
        ignore (Lease.release st.leases ~name ~epoch);
        release_cell st name;
        st.cfg.log (Printf.sprintf "journal: grant of %d aborted (%s)" name m);
        send_response st c
          (acquire_error p.id Wire.err_internal "journal append failed"))

let serve_queues st =
  Array.iteri
    (fun shard q ->
      while not (Queue.is_empty q) do
        serve_acquire st ~shard (Queue.pop q)
      done)
    st.queues

(* ------------------------------------------------------------------ *)
(* I/O *)

let on_readable st c =
  match Unix.read c.fd st.scratch 0 (Bytes.length st.scratch) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> disconnect st c
  | 0 -> disconnect st c
  | n -> (
    match Session.feed c.session ~buf:st.scratch ~len:n with
    | Ok reqs -> List.iter (handle_request st c) reqs
    | Error msg ->
      send_response st c (acquire_error 0 Wire.err_proto msg);
      c.closing <- true)

let on_writable st c =
  try
    let continue = ref true in
    while !continue do
      match Session.peek_out c.session with
      | None -> continue := false
      | Some (head, off) ->
        let len = String.length head - off in
        (* repro-lint: allow journal-write — client socket, not a journal fd *)
        let n = Unix.write_substring c.fd head off len in
        Session.advance_out c.session n;
        if n > 0 then c.last_progress <- now ();
        if n < len then continue := false
    done
  with
  | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | Unix.Unix_error _ -> disconnect st c

let accept_ready st listen_fd =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true listen_fd with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error (e, _, _) ->
      st.cfg.log (Printf.sprintf "accept: %s" (Unix.error_message e));
      continue := false
    | fd, _ ->
      if Hashtbl.length st.conns >= st.cfg.max_conns then begin
        st.cfg.log "accept: connection limit reached, refusing";
        close_fd fd
      end
      else begin
        Unix.set_nonblock fd;
        let cid = st.next_cid in
        st.next_cid <- cid + 1;
        st.conns_served <- st.conns_served + 1;
        let c =
          {
            fd;
            cid;
            session = Session.create ();
            closing = false;
            dead = false;
            last_progress = now ();
          }
        in
        Hashtbl.replace st.conns cid c;
        Hashtbl.replace st.by_fd fd c
      end
  done

(* ------------------------------------------------------------------ *)
(* Startup: bind, reclaiming a stale socket file if the daemon behind
   it is gone (the failure mode `repro_cli doctor` audits). *)

let bind_socket cfg =
  let path = cfg.socket_path in
  let stale_or_error () =
    let probe = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
    let verdict =
      match Unix.connect probe (ADDR_UNIX path) with
      | () -> Error (Printf.sprintf "%s: a daemon is already serving" path)
      | exception Unix.Unix_error (ECONNREFUSED, _, _) -> Ok `Stale
      | exception Unix.Unix_error (ENOENT, _, _) -> Ok `Gone
      | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
    in
    close_fd probe;
    verdict
  in
  let ready =
    match Unix.stat path with
    | exception Unix.Unix_error (ENOENT, _, _) -> Ok ()
    | { st_kind = S_SOCK; _ } -> (
      match stale_or_error () with
      | Error _ as e -> e
      | Ok `Gone -> Ok ()
      | Ok `Stale ->
        cfg.log (Printf.sprintf "reclaiming stale socket file %s" path);
        Unix.unlink path;
        Ok ())
    | _ -> Error (Printf.sprintf "%s exists and is not a socket" path)
  in
  match ready with
  | Error _ as e -> e
  | Ok () -> (
    let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
    match
      Unix.bind fd (ADDR_UNIX path);
      Unix.listen fd cfg.backlog;
      Unix.set_nonblock fd
    with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      close_fd fd;
      Error (Printf.sprintf "bind %s: %s" path (Unix.error_message e)))

(* ------------------------------------------------------------------ *)
(* Journal recovery (before the socket exists: a daemon that will
   refuse to serve should never accept a connection). *)

let recover_journal cfg ~pool ~leases =
  match cfg.journal_path with
  | None -> Ok (None, 0)
  | Some path ->
    if not (Sys.file_exists path) then (
      match Journal.open_append ~path with
      | Ok j -> Ok (Some j, 0)
      | Error e -> Error e)
    else (
      match Journal.scan ~path with
      | Error e -> Error e
      | Ok s ->
        if s.Journal.damaged > 0 then
          Error
            (Printf.sprintf
               "journal %s: %d damaged record(s); refusing to serve from a \
                corrupt ledger (repro_cli doctor shows the damage)"
               path s.Journal.damaged)
        else begin
          if s.Journal.torn_tail then
            cfg.log
              (Printf.sprintf "journal %s: torn tail dropped (crash artifact)"
                 path);
          let live = Journal.replay s.Journal.records in
          let n = List.length live.Journal.grants in
          if n > 0 && not cfg.recover then
            Error
              (Printf.sprintf
                 "%s journal %s replays %d live grant(s); restart with \
                  --recover to re-occupy them"
                 recovery_required_prefix path n)
          else begin
            let restored = ref 0 in
            List.iter
              (fun (name, (epoch, _client, token)) ->
                match Shard.retake pool ~name with
                | `Taken ->
                  Lease.restore leases ~now:(now ()) ~name ~epoch ~token;
                  incr restored
                | `Already ->
                  cfg.log
                    (Printf.sprintf
                       "recovery: name %d doubly granted in the journal" name)
                | `Outside ->
                  cfg.log
                    (Printf.sprintf
                       "recovery: name %d outside the pool geometry \
                        (shards/capacity changed?)"
                       name))
              live.Journal.grants;
            Lease.set_next_epoch leases live.Journal.next_epoch;
            if live.Journal.double_grants > 0 then
              cfg.log
                (Printf.sprintf "recovery: replay counted %d double grant(s)"
                   live.Journal.double_grants);
            match Journal.rewrite ~path live.Journal.grants with
            | Error e -> Error e
            | Ok () -> (
              match Journal.open_append ~path with
              | Error e -> Error e
              | Ok j ->
                if !restored > 0 || s.Journal.torn_tail then
                  cfg.log
                    (Printf.sprintf
                       "recovered %d live grant(s) from %s (journal compacted)"
                       !restored path);
                Ok (Some j, !restored))
          end
        end)

(* ------------------------------------------------------------------ *)
(* The serving loop *)

(* Block until a connection, the listener or the stop pipe is ready;
   the readable fds come back. *)
let select_step st conns =
  let reads = ref [ st.wake_r ] in
  let writes = ref [] in
  (match (st.phase, st.listen_fd) with
  | Serving, Some fd when Hashtbl.length st.conns < st.cfg.max_conns ->
    reads := fd :: !reads
  | _ -> ());
  List.iter
    (fun c ->
      (* Read-pausing backpressure: a peer whose outbound backlog is
         over the bound stops being read — it cannot submit more work
         until it drains what it already owes us. *)
      if
        st.phase = Serving && (not c.closing)
        && Session.out_bytes c.session <= st.cfg.max_out_bytes
      then reads := c.fd :: !reads;
      if out_pending c then writes := c.fd :: !writes)
    conns;
  match Unix.select !reads !writes [] 0.1 with
  | exception Unix.Unix_error (EINTR, _, _) -> []
  | r, _, _ -> r

(* Stop serving: return every name still on a session ledger or lease
   table (journaling the releases).  The shard queues are empty at the
   end of every tick, so there is no in-flight work to wait for. *)
let drain st conns =
  let drained = ref 0 in
  List.iter
    (fun c ->
      List.iter
        (fun name ->
          Session.note_released c.session name;
          release_lease st name;
          drain_release st name;
          incr drained)
        (Session.held c.session))
    conns;
  (* Orphan leases (recovered grants nobody reclaimed) hold real cells
     but sit on no session ledger; release them too or the
     conservation check would call them a leak. *)
  List.iter
    (fun (name, epoch, _holder, _token) ->
      (match journal_append st (Journal.Release { name; epoch }) with
      | Ok () -> ()
      | Error m ->
        st.cfg.log
          (Printf.sprintf "journal: drain release of %d not recorded (%s)" name
             m));
      drain_release st name;
      incr drained)
    (Lease.expire_due st.leases ~now:infinity);
  st.cfg.log (Printf.sprintf "auto-released %d held name(s)" !drained)

let run ?handle cfg =
  if cfg.shards < 1 then invalid_arg "Server.run: shards < 1";
  if cfg.capacity < 1 then invalid_arg "Server.run: capacity < 1";
  if cfg.max_queue < 1 then invalid_arg "Server.run: max_queue < 1";
  if cfg.max_out_bytes < 1 then invalid_arg "Server.run: max_out_bytes < 1";
  let handle = match handle with Some h -> h | None -> create_handle () in
  let pool =
    Shard.create ~shards:cfg.shards ~capacity:cfg.capacity ~seed:cfg.seed ()
  in
  let leases = Lease.create ~ttl_s:cfg.lease_ttl_s () in
  match recover_journal cfg ~pool ~leases with
  | Error _ as e -> e
  | Ok (journal, recovered) -> (
    let close_journal () =
      match journal with Some j -> Journal.close j | None -> ()
    in
    match bind_socket cfg with
    | Error _ as e ->
      close_journal ();
      e
    | Ok listen_fd ->
      (* The self-pipe only lets {!stop} wake [select]. *)
      let wake_r, wake_w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock wake_r;
      Unix.set_nonblock wake_w;
      Atomic.set handle.wake (Some wake_w);
      let st =
        {
          cfg;
          pool;
          leases;
          journal;
          recovered;
          handle;
          queues = Array.init cfg.shards (fun _ -> Queue.create ());
          wake_r;
          conns = Hashtbl.create 64;
          by_fd = Hashtbl.create 64;
          started = now ();
          scratch = Bytes.create 65536;
          out = Buffer.create 256;
          overload =
            Overload.create ?config:cfg.overload ~queue_bound:cfg.max_queue ();
          listen_fd = Some listen_fd;
          phase = Serving;
          next_cid = 0;
          next_sweep = 0.;
          conns_served = 0;
          requests = 0;
          acquires = 0;
          releases = 0;
          errors = 0;
          drained_releases = 0;
          renews = 0;
          expired_leases = 0;
          dedup_hits = 0;
          shed_busy = 0;
          shed_expired = 0;
          stalled_conns = 0;
          queue_peak = 0;
          flush_deadline = 0.;
        }
      in
      cfg.log
        (Printf.sprintf
           "serving on %s: %d shard(s), capacity %d, namespace %d, lease TTL \
            %.3fs%s"
           cfg.socket_path cfg.shards cfg.capacity (Shard.namespace pool)
           (Lease.ttl_s leases)
           (match cfg.journal_path with
           | Some p -> Printf.sprintf ", journal %s" p
           | None -> ""));
      let close_listener () =
        match st.listen_fd with
        | None -> ()
        | Some fd ->
          st.listen_fd <- None;
          close_fd fd;
          (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ())
      in
      let running = ref true in
      while !running do
        let conns = conn_list st in
        let readable = select_step st conns in
        (* Wake bytes carry no data; drain and discard. *)
        if List.mem st.wake_r readable then (
          try
            while Unix.read st.wake_r st.scratch 0 512 > 0 do
              ()
            done
          with Unix.Unix_error _ -> ());
        (match st.listen_fd with
        | Some fd when List.mem fd readable -> accept_ready st fd
        | _ -> ());
        (* (a) Read and admit.  Once every shard queue is full the rest
           of the ready connections stay unread this tick: their bytes
           wait in the kernel instead of being read only to be refused. *)
        List.iter
          (fun fd ->
            match Hashtbl.find_opt st.by_fd fd with
            | Some c when not (queues_full st) -> on_readable st c
            | _ -> ())
          readable;
        (* (b) The overload machine sees the deepest queue. *)
        if st.phase = Serving then begin
          let depth = max_queue_depth st in
          st.queue_peak <- max st.queue_peak depth;
          ignore (Overload.observe st.overload ~now:(now ()) ~queue_depth:depth)
        end;
        (* (c) Serve every admitted acquire, (d) flush the replies. *)
        serve_queues st;
        List.iter
          (fun c -> if (not c.dead) && out_pending c then on_writable st c)
          conns;
        (* Connections asked to close (protocol corruption): flush, drop. *)
        List.iter
          (fun c ->
            if c.closing && (not c.dead) && not (out_pending c) then
              disconnect st c)
          conns;
        (* Slow-reader stall: over the outbound bound AND no byte has
           drained for stall_s — the peer is gone or wedged, so cut it
           loose (its ledger auto-releases through the drain path). *)
        (let t = now () in
         List.iter
           (fun c ->
             if
               (not c.dead)
               && Session.out_bytes c.session > st.cfg.max_out_bytes
               && t -. c.last_progress > st.cfg.stall_s
             then begin
               st.stalled_conns <- st.stalled_conns + 1;
               st.cfg.log
                 (Printf.sprintf
                    "conn %d stalled: %d unsent byte(s), no progress for \
                     %.1fs; disconnecting"
                    c.cid
                    (Session.out_bytes c.session)
                    (t -. c.last_progress));
               disconnect st c
             end)
           conns);
        (* Lease expiry sweep *)
        (if st.phase = Serving then
           let t = now () in
           if t >= st.next_sweep then begin
             sweep st t;
             st.next_sweep <- t +. sweep_period st
           end);
        (* Phase transitions *)
        if st.phase = Serving && stop_requested handle then begin
          cfg.log "stop requested: draining";
          close_listener ();
          drain st (conn_list st);
          st.phase <- Flushing;
          st.flush_deadline <- now () +. 5.
        end;
        if
          st.phase = Flushing
          && ((not (List.exists (fun c -> (not c.dead) && out_pending c) conns))
             || now () > st.flush_deadline)
        then running := false
      done;
      (* Teardown: close clients, check slot conservation. *)
      List.iter (fun c -> close_fd c.fd) (conn_list st);
      Hashtbl.reset st.conns;
      Hashtbl.reset st.by_fd;
      close_listener ();
      close_journal ();
      Atomic.set handle.wake None;
      close_fd wake_r;
      close_fd wake_w;
      let taken_at_exit = Shard.taken_count pool in
      if taken_at_exit <> 0 then
        cfg.log
          (Printf.sprintf "LEAK: %d cell(s) still taken at exit" taken_at_exit);
      Ok
        {
          conns_served = st.conns_served;
          requests = st.requests;
          acquires = st.acquires;
          releases = st.releases;
          errors = st.errors;
          drained_releases = st.drained_releases;
          renews = st.renews;
          expired_leases = st.expired_leases;
          dedup_hits = st.dedup_hits;
          recovered = st.recovered;
          shed_busy = st.shed_busy;
          shed_expired = st.shed_expired;
          stalled_conns = st.stalled_conns;
          queue_peak = st.queue_peak;
          taken_at_exit;
          wall_s = now () -. st.started;
        })

(* ------------------------------------------------------------------ *)
(* Embedding *)

type spawned = {
  sh : handle;
  dom : (report, string) result Domain.t;
}

let spawn ?handle cfg =
  let sh = match handle with Some h -> h | None -> create_handle () in
  { sh; dom = Domain.spawn (fun () -> run ~handle:sh cfg) }

let spawned_handle s = s.sh
let join s = Domain.join s.dom
