(* The serving layers timed in-process, one call at a time, on the
   request sequence the daemon runs for an open-loop client: acquire,
   hold while about [window] other names are held, release.  Each call
   gets its own span under a per-request root, so the self time of each
   layer is read off the spans. *)

let window = 32

(* Run [requests] acquires (and the releases that keep [window] names
   held) through Wire, Session, Shard and Lease.  Returns the shard
   for its counters. *)
let serve_sequence (a : Svc.audit) ~seed ~requests =
  let pool = Service.Shard.create ~shards:1 ~capacity:4096 ~seed () in
  let leases = Service.Lease.create ~ttl_s:30. () in
  let session = Service.Session.create () in
  let b = Buffer.create 64 in
  let rng = Prng.Splitmix.of_int seed in
  let held = Queue.create () in
  let live = Hashtbl.create 64 in
  let wire_encode ~root ~req f =
    Buffer.clear b;
    Span.wrap ~parent:root ~req "wire.encode" (fun () -> f b);
    Buffer.to_bytes b
  in
  let feed ~root ~req bytes =
    Span.wrap ~parent:root ~req "session.feed" (fun () ->
        Service.Session.feed session ~buf:bytes ~len:(Bytes.length bytes))
  in
  let decode ~root ~req bytes =
    Span.wrap ~parent:root ~req "wire.decode" (fun () ->
        Service.Wire.decode_response Service.Wire.Binary bytes ~pos:0
          ~len:(Bytes.length bytes))
  in
  let release id (name, epoch, client) =
    let root = Span.start ~req:id "request.release" in
    let rq = Service.Wire.Release { id; client; name } in
    let bytes =
      wire_encode ~root ~req:id (fun b ->
          Service.Wire.encode_request Service.Wire.Binary b rq)
    in
    (match feed ~root ~req:id bytes with
    | Ok [ r ] when r = rq -> ()
    | _ -> Svc.breach a ~count:1 "session: release frame not recovered");
    Span.wrap ~parent:root ~req:id "session.ledger" (fun () ->
        Service.Session.note_released session name);
    (match
       Span.wrap ~parent:root ~req:id "lease.release" (fun () ->
           Service.Lease.release leases ~name ~epoch)
     with
    | `Released -> ()
    | `Stale | `Unknown -> Svc.breach a ~count:1 "lease: release refused");
    Span.wrap ~parent:root ~req:id "shard.release" (fun () ->
        Service.Shard.release pool ~name);
    Hashtbl.remove live name;
    let resp =
      wire_encode ~root ~req:id (fun b ->
          Service.Wire.encode_response Service.Wire.Binary b
            (Service.Wire.Released { id }))
    in
    ignore (decode ~root ~req:id resp);
    Span.stop root
  in
  for id = 0 to requests - 1 do
    a.attempted <- a.attempted + 1;
    let client = Prng.Splitmix.int rng 64 in
    let root = Span.start ~req:id "request.acquire" in
    let rq = Service.Wire.Acquire { id; client; token = 0; deadline_ms = 0 } in
    let bytes =
      wire_encode ~root ~req:id (fun b ->
          Service.Wire.encode_request Service.Wire.Binary b rq)
    in
    (match feed ~root ~req:id bytes with
    | Ok [ r ] when r = rq -> ()
    | _ -> Svc.breach a ~count:1 "session: acquire frame not recovered");
    (match
       Span.wrap ~parent:root ~req:id "shard.acquire" (fun () ->
           Service.Shard.acquire pool ~shard:0 ~client)
     with
    | None -> Svc.breach a ~count:1 "shard: acquire found no free name"
    | Some name ->
      if Hashtbl.mem live name then
        Svc.breach a ~count:1 "shard: name %d granted twice" name;
      Hashtbl.replace live name ();
      let now = Stat.now () in
      let epoch =
        Span.wrap ~parent:root ~req:id "lease.grant" (fun () ->
            Service.Lease.grant leases ~now ~name ~holder:(Some 1) ~token:0)
      in
      Span.wrap ~parent:root ~req:id "session.ledger" (fun () ->
          Service.Session.note_acquired session name);
      let resp =
        wire_encode ~root ~req:id (fun b ->
            Service.Wire.encode_response Service.Wire.Binary b
              (Service.Wire.Acquired { id; name; lease_ms = 30_000 }))
      in
      (match decode ~root ~req:id resp with
      | Service.Wire.Frame (Service.Wire.Acquired { name = n; _ }, _)
        when n = name -> ()
      | _ -> Svc.breach a ~count:1 "wire: acquired frame not recovered");
      Queue.push (name, epoch, client) held);
    Span.stop root;
    if Queue.length held > window then release (requests + id) (Queue.pop held)
  done;
  let tail = ref (2 * requests) in
  Queue.iter
    (fun h ->
      release !tail h;
      incr tail)
    held;
  if Service.Shard.taken_count pool <> 0 then
    Svc.breach a ~count:1 "shard: %d cell(s) taken after the sequence"
      (Service.Shard.taken_count pool);
  pool

(* Minor words per request frame encoded and decoded, untraced. *)
let words_per_frame ~frames =
  let b = Buffer.create 64 in
  let rq = Service.Wire.Acquire { id = 7; client = 3; token = 0; deadline_ms = 0 } in
  Service.Wire.encode_request Service.Wire.Binary b rq;
  let bytes = Buffer.to_bytes b in
  let len = Bytes.length bytes in
  let w0 = Gc.minor_words () in
  for _ = 1 to frames do
    Buffer.clear b;
    Service.Wire.encode_request Service.Wire.Binary b rq;
    ignore
      (Sys.opaque_identity
         (Service.Wire.decode_request Service.Wire.Binary bytes ~pos:0 ~len))
  done;
  (Gc.minor_words () -. w0) /. float_of_int frames

let overload_observe ~seed ~calls =
  let ov = Service.Overload.create ~queue_bound:512 () in
  let rng = Prng.Splitmix.of_int seed in
  let t = ref (Stat.now ()) in
  for i = 0 to calls - 1 do
    t := !t +. 0.0001;
    let queue_depth = Prng.Splitmix.int rng 600 in
    ignore
      (Span.wrap ~req:i "overload.observe" (fun () ->
           Service.Overload.observe ov ~now:!t ~queue_depth))
  done

(* Append + fsync on the filesystem that holds the daemon's journal. *)
let journal_appends (a : Svc.audit) ~records =
  let path = Filename.concat Svc.run_dir "ledger.journal" in
  Svc.remove path;
  match Service.Journal.open_append ~path with
  | Error e ->
    Svc.breach a ~count:1 "journal: %s" e;
    nan
  | Ok j ->
    for i = 0 to records - 1 do
      a.attempted <- a.attempted + 1;
      let r =
        if i land 1 = 0 then
          Service.Journal.Grant
            { name = i / 2; epoch = i + 1; client = i mod 64; token = 0 }
        else Service.Journal.Release { name = i / 2; epoch = i }
      in
      Span.wrap ~req:i "journal.append" (fun () -> Service.Journal.append j r)
    done;
    Service.Journal.close j;
    let bytes = (Unix.stat path).Unix.st_size in
    (match Service.Journal.scan ~path with
    | Ok s when List.length s.records = records && s.damaged = 0 -> ()
    | _ -> Svc.breach a ~count:1 "journal: records did not scan back");
    Svc.remove path;
    float_of_int bytes /. float_of_int records
