(* The serving half: the [renamed] daemon as a child process, loaded
   over its socket by [Load_gen] (the untraced path), by a traced
   open-loop generator, by a closed loop and by one request at a time.

   The daemon always runs with [--shards 1] (one I/O domain plus one
   worker domain) so its RSS and GC are its own; the generator is this
   single-domain process over at most two connections. *)

open Service

type config = {
  label : string;
  rate : float;  (* offered acquires per second, open loop *)
  inflight : int;  (* > 0: closed loop with this many acquires in flight *)
  journal : bool;  (* one fsync per grant and per release *)
  deadline_ms : int;  (* 0 = none *)
  max_queue : int option;  (* daemon admission bound; None = default *)
}

let steady =
  { label = "steady"; rate = 30_000.; inflight = 0; journal = false;
    deadline_ms = 0; max_queue = None }

let durable =
  { label = "durable"; rate = 0.; inflight = 8; journal = true;
    deadline_ms = 250; max_queue = Some 512 }

(* The durable daemon driven open loop far past its journal-bound
   capacity: admission and deadline shedding carry the load. *)
let overdrive = { durable with label = "overdrive"; rate = 20_000.; inflight = 0 }

let conns = 2
let clients = 64
let hold_mean_s = 0.001

(* Runtime files live in one directory of the checkout; paths are
   relative so the socket path stays short wherever the checkout is. *)
let run_dir = ".perfbench"
let sock = Filename.concat run_dir "renamed.sock"
let journal_path = Filename.concat run_dir "renamed.journal"

let remove path = try Sys.remove path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle *)

type daemon = { pid : int; boot_s : float }

(* Daemons not yet reaped; killed at exit if the run dies early. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let forget pid = live := List.filter (( <> ) pid) !live

(* Start the daemon and wait until its socket accepts a connection;
   [boot_s] runs from the spawn to that first accept. *)
let spawn ~exe ~seed cfg =
  remove sock;
  remove journal_path;
  let args =
    [ exe; "--socket"; sock; "--shards"; "1"; "--seed"; string_of_int seed;
      "--quiet" ]
    @ (if cfg.journal then [ "--journal"; journal_path ] else [])
    @ match cfg.max_queue with
      | Some q -> [ "--max-queue"; string_of_int q ]
      | None -> []
  in
  let t0 = Stat.now () in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stderr
      Unix.stderr
  in
  live := pid :: !live;
  let rec wait () =
    match Client.connect ~path:sock () with
    | Ok c ->
      let boot_s = Stat.now () -. t0 in
      Client.close c;
      Ok { pid; boot_s }
    | Error e -> (
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        if Stat.now () -. t0 > 30. then Error ("daemon did not accept: " ^ e)
        else begin
          Unix.sleepf 0.001;
          wait ()
        end
      | _ ->
        forget pid;
        Error "daemon exited during boot")
  in
  wait ()

(* Ask for a graceful drain and reap the daemon.  [Ok code] is its exit
   code; 0 means the slot-conservation audit found [taken_at_exit = 0]. *)
let stop d =
  (match Client.connect ~path:sock () with
  | Ok c ->
    ignore (Client.shutdown ~timeout:10. c);
    Client.close c
  | Error _ -> ());
  let t0 = Stat.now () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Stat.now () -. t0 > 30. then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid);
        forget d.pid;
        Error "daemon did not exit after shutdown"
      end
      else begin
        Unix.sleepf 0.002;
        reap ()
      end
    | _, Unix.WEXITED code ->
      forget d.pid;
      Ok code
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      forget d.pid;
      Error (Printf.sprintf "daemon killed by signal %d" s)
  in
  let r = reap () in
  remove journal_path;
  r

let daemon_hwm_mb d = Stat.proc_status_mb ~pid:(string_of_int d.pid) "VmHWM"

let daemon_stats () =
  match Client.connect ~path:sock () with
  | Error e -> Error e
  | Ok c ->
    let r = Client.stats ~timeout:10. c in
    Client.close c;
    (match r with
    | Ok j -> Ok (Jsonu.obj j)
    | Error f -> Error (Client.failure_message f))

(* ------------------------------------------------------------------ *)
(* Checks *)

(* A breach found by the run: counted as failed operations and logged. *)
type audit = { mutable attempted : int; mutable failed : int }

let audit () = { attempted = 0; failed = 0 }

let breach a ~count fmt =
  Printf.ksprintf
    (fun msg ->
      a.failed <- a.failed + count;
      Printf.eprintf "perfbench: %s\n%!" msg)
    fmt

let check_exit a ~what = function
  | Ok 0 -> ()
  | Ok code -> breach a ~count:1 "%s: daemon exited %d (slots leaked)" what code
  | Error e -> breach a ~count:1 "%s: %s" what e

(* Boot [boots] times; every boot but the last is drained again at
   once.  Returns the last daemon and the boot times. *)
let boot a ~exe ~seed ~boots cfg =
  let rec go i times =
    match spawn ~exe ~seed cfg with
    | Error e ->
      breach a ~count:1 "boot %d: %s" i e;
      (None, times)
    | Ok d ->
      let times = d.boot_s :: times in
      if i + 1 >= boots then (Some d, times)
      else begin
        check_exit a ~what:"boot drain" (stop d);
        go (i + 1) times
      end
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Open-loop load through Load_gen (the untraced path) *)

let load_config cfg ~seed ~duration =
  {
    (Load_gen.default_config ~path:sock) with
    conns;
    clients;
    rate = cfg.rate;
    duration_s = duration;
    hold = Load_gen.Exponential hold_mean_s;
    seed;
    deadline_ms = cfg.deadline_ms;
    drain_timeout_s = 20.;
  }

let audit_load a ~what (r : Load_gen.result) =
  a.attempted <- a.attempted + r.offered;
  if r.violations > 0 then
    breach a ~count:r.violations "%s: %d uniqueness violation(s)" what
      r.violations;
  if r.leaked <> 0 then
    breach a ~count:(max 1 r.leaked) "%s: leaked = %d" what r.leaked;
  if r.timeouts > 0 then
    breach a ~count:r.timeouts "%s: %d timeout(s)" what r.timeouts;
  if r.errors > 0 then breach a ~count:r.errors "%s: %d error(s)" what r.errors;
  if r.dropped > 0 then
    breach a ~count:r.dropped "%s: %d dropped operation(s)" what r.dropped;
  if not r.drain_complete then breach a ~count:1 "%s: drain incomplete" what

let load a cfg ~seed ~duration =
  let id = Span.start ("loadgen.run." ^ cfg.label) in
  let r = Load_gen.run (load_config cfg ~seed ~duration) in
  Span.stop id;
  match r with
  | Error e ->
    a.attempted <- a.attempted + 1;
    breach a ~count:1 "load (%s): %s" cfg.label e;
    None
  | Ok r ->
    audit_load a ~what:("load " ^ cfg.label) r;
    Some r

(* ------------------------------------------------------------------ *)
(* The traced open-loop generator over Client.post / recv *)

type pend =
  | Acq of { root : int; due : float; client : int }
  | Rel of { root : int }

(* Spans are kept for one request in [sample]; latency and lateness are
   recorded for all of them. *)
let sample = 4

module Releases = Set.Make (struct
  type t = float * int * int * int  (* due, conn, name, client *)

  let compare = compare
end)

type driven = {
  latency : Stats.Hdr.t;  (* due -> Acquired, ns *)
  lateness : Stats.Hdr.t;  (* due -> post, ns *)
}

let drive a ~rate ~seed ~duration =
  let links =
    Array.init conns (fun _ ->
        match Client.connect ~path:sock () with
        | Ok c -> c
        | Error e -> failwith ("traced generator: " ^ e))
  in
  let rng = Prng.Splitmix.of_int seed in
  let pending = Hashtbl.create 1024 in
  let held = Hashtbl.create 1024 in
  let releases = ref Releases.empty in
  let latency = Stats.Hdr.create () and lateness = Stats.Hdr.create () in
  let offered = ref 0 in
  let t_start = Stat.now () in
  let t_end = t_start +. duration in
  let next = ref (t_start +. Prng.Dist.exponential_sample rng ~rate) in
  let post_acquire due =
    let slot = !offered mod conns in
    let client = !offered mod clients in
    let c = links.(slot) in
    let id = Client.fresh_id c in
    let root =
      if !offered mod sample = 0 then
        Span.record ~req:!offered "loadgen.acquire" ~t0:due ~t1:due
      else -1
    in
    Stats.Hdr.record lateness (int_of_float ((Stat.now () -. due) *. 1e9));
    let req = Wire.Acquire { id; client; token = 0; deadline_ms = 0 } in
    if root >= 0 then
      Span.wrap ~parent:root ~req:!offered "client.post" (fun () ->
          Client.post c req)
    else Client.post c req;
    Hashtbl.replace pending (slot, id) (Acq { root; due; client });
    incr offered
  in
  let post_release (_, slot, name, client) =
    let c = links.(slot) in
    let id = Client.fresh_id c in
    let req = Wire.Release { id; client; name } in
    let root =
      if name mod sample = 0 then begin
        let root = Span.start ~req:name "loadgen.release" in
        Span.wrap ~parent:root "client.post" (fun () -> Client.post c req);
        Span.stop root;
        root
      end
      else begin
        Client.post c req;
        -1
      end
    in
    Hashtbl.remove held name;
    Hashtbl.replace pending (slot, id) (Rel { root })
  in
  let on_response slot ~t0 ~t1 r =
    match Hashtbl.find_opt pending (slot, Wire.response_id r) with
    | None -> breach a ~count:1 "traced generator: unsolicited response"
    | Some p -> (
      Hashtbl.remove pending (slot, Wire.response_id r);
      let root = match p with Acq { root; _ } | Rel { root } -> root in
      if root >= 0 then begin
        ignore (Span.record ~parent:root "client.recv" ~t0 ~t1);
        Span.stop_at root t1
      end;
      match (p, r) with
      | Acq { due; client; _ }, Wire.Acquired { name; _ } ->
        Stats.Hdr.record latency (int_of_float ((t1 -. due) *. 1e9));
        if Hashtbl.mem held name then
          breach a ~count:1 "traced generator: name %d granted twice" name
        else begin
          Hashtbl.replace held name ();
          let hold = Prng.Dist.exponential_sample rng ~rate:(1. /. hold_mean_s) in
          releases := Releases.add (t1 +. hold, slot, name, client) !releases
        end
      | Acq _, Wire.Busy _ | Rel _, Wire.Released _ -> ()
      | _, Wire.Error { msg; _ } -> breach a ~count:1 "traced generator: %s" msg
      | _ -> breach a ~count:1 "traced generator: unexpected response")
  in
  let drain_deadline = t_end +. 20. in
  let rec loop () =
    let t = Stat.now () in
    while !next <= Stat.now () && !next < t_end do
      post_acquire !next;
      next := !next +. Prng.Dist.exponential_sample rng ~rate
    done;
    let draining = t >= t_end in
    let rec due_releases () =
      match Releases.min_elt_opt !releases with
      | Some ((at, _, _, _) as e) when draining || at <= Stat.now () ->
        releases := Releases.remove e !releases;
        post_release e;
        due_releases ()
      | _ -> ()
    in
    due_releases ();
    Array.iter Client.flush_nb links;
    Array.iteri
      (fun slot c ->
        let rec pump () =
          let t0 = Stat.now () in
          match Client.recv c ~timeout:0. with
          | Ok (Some r) ->
            on_response slot ~t0 ~t1:(Stat.now ()) r;
            pump ()
          | Ok None -> ()
          | Error e -> failwith ("traced generator: " ^ e)
        in
        pump ())
      links;
    let finished =
      draining && Hashtbl.length pending = 0 && Releases.is_empty !releases
    in
    if finished then ()
    else if Stat.now () > drain_deadline then
      breach a ~count:(Hashtbl.length pending)
        "traced generator: %d operation(s) unanswered" (Hashtbl.length pending)
    else begin
      let t = Stat.now () in
      let until_arrival = if draining then 0.005 else !next -. t in
      let until_release =
        match Releases.min_elt_opt !releases with
        | Some (at, _, _, _) -> at -. t
        | None -> 0.005
      in
      let timeout =
        Float.max 0. (Float.min 0.005 (Float.min until_arrival until_release))
      in
      (match
         Unix.select (Array.to_list (Array.map Client.fd links)) [] [] timeout
       with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | _ -> ());
      loop ()
    end
  in
  loop ();
  Array.iter Client.close links;
  a.attempted <- a.attempted + !offered;
  { latency; lateness }

(* ------------------------------------------------------------------ *)
(* One request at a time: the client's round trip *)

let round_trips a ~count =
  match Client.connect ~path:sock () with
  | Error e ->
    breach a ~count:1 "rtt: %s" e;
    []
  | Ok c ->
    let rtts = ref [] in
    for i = 0 to count - 1 do
      a.attempted <- a.attempted + 1;
      let t0 = Stat.now () in
      let id = Span.start ~req:i "client.acquire" in
      let r = Client.acquire c ~client:(i mod clients) in
      Span.stop id;
      let t1 = Stat.now () in
      match r with
      | Ok name -> (
        rtts := (t1 -. t0) :: !rtts;
        match
          Span.wrap ~req:i "client.release" (fun () ->
              Client.release c ~client:(i mod clients) ~name)
        with
        | Ok () -> ()
        | Error f -> breach a ~count:1 "rtt release: %s" (Client.failure_message f))
      | Error f -> breach a ~count:1 "rtt acquire: %s" (Client.failure_message f)
    done;
    Client.close c;
    List.rev !rtts

(* ------------------------------------------------------------------ *)
(* Closed loop: a fixed number of acquires in flight *)

(* [cfg.inflight] logical clients, spread over [conns] connections, each
   acquiring, releasing the name as soon as it is granted, and
   acquiring again.  Runs [duration] seconds, then drains; returns the
   acquires granted inside the window. *)
let closed_loop a cfg ~seed ~duration =
  let links =
    Array.init conns (fun _ ->
        match Client.connect ~path:sock () with
        | Ok c -> c
        | Error e -> failwith ("closed loop: " ^ e))
  in
  let rng = Prng.Splitmix.of_int seed in
  let pending = Hashtbl.create 256 in
  let attempted = ref 0 and in_window = ref 0 in
  let t_start = Stat.now () in
  let t_end = t_start +. duration in
  let post_acquire slot =
    let c = links.(slot) in
    let id = Client.fresh_id c in
    let client = Prng.Splitmix.int rng clients in
    Hashtbl.replace pending (slot, id) (`Acq client);
    incr attempted;
    Client.post c
      (Wire.Acquire { id; client; token = 0; deadline_ms = cfg.deadline_ms })
  in
  for k = 0 to cfg.inflight - 1 do
    post_acquire (k mod conns)
  done;
  let on_response slot r =
    let key = (slot, Wire.response_id r) in
    match Hashtbl.find_opt pending key with
    | None -> breach a ~count:1 "closed loop: unsolicited response"
    | Some p -> (
      Hashtbl.remove pending key;
      let t = Stat.now () in
      match (p, r) with
      | `Acq client, Wire.Acquired { name; _ } ->
        if t <= t_end then incr in_window;
        let c = links.(slot) in
        let id = Client.fresh_id c in
        Hashtbl.replace pending (slot, id) (`Rel name);
        Client.post c (Wire.Release { id; client; name });
        if t < t_end then post_acquire slot
      | `Acq _, Wire.Error { code; msg; _ }
        when code <> Wire.err_expired && code <> Wire.err_capacity ->
        breach a ~count:1 "closed loop: acquire failed: %s" msg
      | `Acq _, (Wire.Busy _ | Wire.Error _) ->
        if t < t_end then post_acquire slot
      | `Rel _, Wire.Released _ -> ()
      | _ -> breach a ~count:1 "closed loop: unexpected response")
  in
  let drain_deadline = t_end +. 20. in
  let rec loop () =
    Array.iter Client.flush_nb links;
    Array.iteri
      (fun slot c ->
        let rec pump () =
          match Client.recv c ~timeout:0. with
          | Ok (Some r) ->
            on_response slot r;
            pump ()
          | Ok None -> ()
          | Error e -> failwith ("closed loop: " ^ e)
        in
        pump ())
      links;
    if Hashtbl.length pending = 0 then ()
    else if Stat.now () > drain_deadline then
      breach a ~count:(Hashtbl.length pending)
        "closed loop: %d operation(s) unanswered" (Hashtbl.length pending)
    else begin
      (match
         Unix.select (Array.to_list (Array.map Client.fd links)) [] [] 0.005
       with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | _ -> ());
      loop ()
    end
  in
  loop ();
  Array.iter Client.close links;
  a.attempted <- a.attempted + !attempted;
  !in_window
