(* renamed: the renaming daemon.

   A thin operator shell over Service.Server: parse flags, install
   signal handlers that trigger the graceful drain, run, and map the
   drain report onto the repository's exit-code convention (0 clean,
   1 findings — here, leaked slots at exit — 2 usage/startup error,
   including "recovery required": a journal with live grants exists
   and --recover was not given). *)

let serve socket_path shards capacity seed backlog max_conns lease_ttl journal
    recover max_queue max_out_kb stall_timeout quiet =
  let log =
    if quiet then ignore
    else fun s -> Printf.eprintf "[renamed] %s\n%!" s
  in
  let cfg =
    {
      (Service.Server.default_config ~socket_path) with
      shards;
      capacity;
      seed;
      backlog;
      max_conns;
      lease_ttl_s = lease_ttl;
      journal_path = journal;
      recover;
      max_queue;
      max_out_bytes = max_out_kb * 1024;
      stall_s = stall_timeout;
      log;
    }
  in
  let handle = Service.Server.create_handle () in
  let on_signal name =
    Sys.Signal_handle
      (fun _ ->
        (* Signal-safe by construction: an Atomic set plus a pipe write. *)
        log (Printf.sprintf "%s: draining" name);
        Service.Server.stop handle)
  in
  Sys.set_signal Sys.sigterm (on_signal "SIGTERM");
  Sys.set_signal Sys.sigint (on_signal "SIGINT");
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Service.Server.run ~handle cfg with
  | Error e ->
    Printf.eprintf "renamed: %s\n%!" e;
    2
  | Ok r ->
    log
      (Printf.sprintf
         "served %d conn(s), %d request(s): %d acquire(s), %d release(s), \
          %d renew(s), %d error(s), %d shed busy, %d shed expired, %d \
          stalled conn(s), %d drained, %d expired, %d recovered, %.1fs"
         r.Service.Server.conns_served r.Service.Server.requests
         r.Service.Server.acquires r.Service.Server.releases
         r.Service.Server.renews r.Service.Server.errors
         r.Service.Server.shed_busy r.Service.Server.shed_expired
         r.Service.Server.stalled_conns r.Service.Server.drained_releases
         r.Service.Server.expired_leases r.Service.Server.recovered
         r.Service.Server.wall_s);
    if Service.Server.report_clean r then 0
    else begin
      Printf.eprintf "renamed: %d slot(s) leaked at exit\n%!"
        r.Service.Server.taken_at_exit;
      1
    end

open Cmdliner

let exits =
  [
    Cmd.Exit.info 0 ~doc:"clean shutdown: every slot returned (no leaks).";
    Cmd.Exit.info 1 ~doc:"shutdown with findings: slots leaked at exit.";
    Cmd.Exit.info 2
      ~doc:
        "usage or startup error (socket in use, bad flags, damaged journal, \
         or a journal holding live grants without $(b,--recover)).";
  ]

let socket_t =
  Arg.(
    value
    & opt string "renamed.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to listen on.")

let shards_t =
  Arg.(
    value & opt int 2
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Allocator shards: namespace partitions with their own coin \
           streams, all served by the one serving domain.")

let capacity_t =
  Arg.(
    value & opt int 4096
    & info [ "capacity" ] ~docv:"N"
        ~doc:"Concurrent name holders supported per shard.")

let seed_t =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED" ~doc:"Root seed for the probe coins.")

let backlog_t =
  Arg.(value & opt int 64 & info [ "backlog" ] ~docv:"N" ~doc:"Listen backlog.")

let max_conns_t =
  Arg.(
    value & opt int 1024
    & info [ "max-conns" ] ~docv:"N"
        ~doc:"Refuse connections beyond this many concurrent clients.")

let lease_ttl_t =
  Arg.(
    value & opt float 30.
    & info [ "lease-ttl" ] ~docv:"SECONDS"
        ~doc:
          "Lease time-to-live: a grant not renewed (by heartbeat or any \
           request on its connection) within this window is reclaimed by \
           the expiry sweep.")

let journal_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Append-only crash journal: every grant is journaled and fsynced \
           before the client sees it, so a killed daemon can be restarted \
           with $(b,--recover) without double-granting a live name.  Off by \
           default (grants are then lost on crash).")

let recover_t =
  Arg.(
    value & flag
    & info [ "recover" ]
        ~doc:
          "Replay the journal at boot: re-occupy every live grant's slot, \
           restore its lease (fresh TTL, original epoch), and compact the \
           journal before accepting connections.  Without this flag a \
           journal holding live grants refuses to start (exit 2).")

let max_queue_t =
  Arg.(
    value & opt int 1024
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Admission bound per shard queue: acquires arriving beyond this \
           depth are refused with a busy response carrying a retry-after \
           hint instead of queueing without limit.")

let max_out_kb_t =
  Arg.(
    value & opt int 256
    & info [ "max-out-kb" ] ~docv:"KB"
        ~doc:
          "Outbound buffer bound per connection (kilobytes): past it the \
           daemon stops reading from that client until it drains.")

let stall_timeout_t =
  Arg.(
    value & opt float 5.
    & info [ "stall-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Disconnect a client whose outbound buffer stays over its bound \
           with no write progress for this long (its names are \
           auto-released by the disconnect drain).")

let quiet_t =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress operator log lines.")

let cmd =
  let doc = "Serve loose renaming over a Unix-domain socket." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the O(log log n) loose-renaming allocator as a daemon: \
         clients acquire and release names over a length-prefixed binary \
         protocol (or line-JSON — open the connection with '{').  Each \
         shard is a long-lived ReBatching instance over its own window \
         of one shared atomic location space; one select loop reads \
         requests, runs each acquire inline and writes the replies.";
      `P
        "Every grant carries a lease ($(b,--lease-ttl)); a client that \
         goes silent without disconnecting loses its names to the expiry \
         sweep.  With $(b,--journal) the daemon is crash-safe: grants are \
         journaled and fsynced before they are acknowledged, and \
         $(b,--recover) replays the journal at boot so a SIGKILL-ed \
         daemon never double-grants a name that was live.";
      `P
        "Overload is survived, not absorbed: shard queues are bounded \
         ($(b,--max-queue)) and excess acquires are refused with a \
         retry-after hint, requests carrying a deadline are shed once it \
         passes instead of being served late, and clients that stop \
         reading are first paused ($(b,--max-out-kb)) then disconnected \
         ($(b,--stall-timeout)).  The $(b,stats) operation reports the \
         overload level (healthy/degraded/shedding).";
      `P
        "SIGTERM and SIGINT drain gracefully: in-flight operations \
         complete, held names are auto-released, and the exit code \
         reports the slot-conservation audit.";
    ]
  in
  Cmd.v
    (Cmd.info "renamed" ~version:"1.0.0" ~doc ~man ~exits)
    Term.(
      const serve $ socket_t $ shards_t $ capacity_t $ seed_t $ backlog_t
      $ max_conns_t $ lease_ttl_t $ journal_t $ recover_t $ max_queue_t
      $ max_out_kb_t $ stall_timeout_t $ quiet_t)

let () = exit (Cmd.eval' cmd)
