(* Shared by the end-to-end service tests: a real serving loop on its
   own domain (fork is unavailable once any test has created a domain),
   plus result unwrappers and a stats reader. *)

open Service

let fresh_socket_path () =
  let path = Filename.temp_file "renamed_test" ".sock" in
  Unix.unlink path;
  path

let base_cfg ?(shards = 2) ?(capacity = 128) ?(lease_ttl = 30.) ?journal
    ?(recover = false) path =
  {
    (Server.default_config ~socket_path:path) with
    shards;
    capacity;
    lease_ttl_s = lease_ttl;
    journal_path = journal;
    recover;
  }

(* Spawn [cfg] and wait (up to 10 s) until its socket accepts. *)
let start_server cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let s = Server.spawn cfg in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Client.connect ~path:cfg.Server.socket_path () with
    | Ok c ->
      Client.close c;
      s
    | Error _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "server did not come up within 10s"
      else begin
        ignore (Unix.select [] [] [] 0.02);
        wait ()
      end
  in
  wait ()

let stop_server s =
  Server.stop (Server.spawned_handle s);
  Server.join s

(* A drain report on renamed's exit convention: 0 clean, 1 leaked, 2
   startup failure. *)
let exit_code = function
  | Error _ -> 2
  | Ok r -> if Server.report_clean r then 0 else 1

let get cl = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" cl e

let getf cl = function
  | Ok v -> v
  | Error f -> Alcotest.failf "%s: %s" cl (Client.failure_message f)

let stat_int c key = Jsonu.int_ (Jsonu.obj (getf "stats" (Client.stats c))) key
