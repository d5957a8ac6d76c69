type t = {
  binary : string;
  dir : string;
  socket : string;
  mutable pid : int option;
}

let dir t = t.dir
let socket t = t.socket

let describe = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %d" s

let reap t pid =
  t.pid <- None;
  match Unix.waitpid [] pid with
  | _, status -> Some status
  | exception Unix.Unix_error _ -> None

let kill t =
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap t pid))
    t.pid

let drain t =
  match t.pid with
  | None -> 125
  | Some pid -> (
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    match reap t pid with Some (Unix.WEXITED c) -> c | _ -> 125)

(* Accepting = a direct connect to the socket succeeds. *)
let accepting path =
  let probe = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect probe (ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let boot t args =
  kill t;
  let pid =
    Unix.create_process t.binary
      (Array.of_list (t.binary :: "--socket" :: t.socket :: args))
      Unix.stdin Unix.stdout Unix.stderr
  in
  t.pid <- Some pid;
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    if accepting t.socket then Ok ()
    else
      match Unix.waitpid [ WNOHANG ] pid with
      | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          kill t;
          Error "daemon did not accept within its startup deadline"
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
      | _, status ->
        t.pid <- None;
        Error
          (Printf.sprintf "daemon died during startup (%s)" (describe status))
  in
  wait ()

let rss_kb t =
  match t.pid with
  | None -> -1
  | Some pid -> (
    let file = Printf.sprintf "/proc/%d/status" pid in
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error _ -> -1
    | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun l -> Scanf.sscanf_opt l "VmRSS: %d kB" Fun.id)
      |> Option.value ~default:(-1))

let remove_tree dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let with_scratch ?binary ~keep ~name ~log f =
  let binary =
    match binary with
    | Some p -> p
    | None ->
      (* repro_cli and renamed are built side by side. *)
      Filename.concat (Filename.dirname Sys.executable_name) "renamed.exe"
  in
  if not (Sys.file_exists binary) then
    Error
      (Printf.sprintf "no renamed binary at %s (build bin/ or pass --daemon)"
         binary)
  else begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s_%d" name (Unix.getpid ()))
    in
    Engine.Sink.mkdir_p dir;
    let socket = Filename.concat dir "renamed.sock" in
    let t = { binary; dir; socket; pid = None } in
    Fun.protect
      ~finally:(fun () ->
        kill t;
        if keep then log (Printf.sprintf "keeping %s" dir) else remove_tree dir)
      (fun () ->
        try f t
        with e -> Error (Printf.sprintf "uncaught %s" (Printexc.to_string e)))
  end
