type failure = {
  key : string;
  experiment : string;
  sweep_point : int;
  trial : int;
  seed : int;
  error : string;
  backtrace : string;
  wall_ns : float;
}

let store_path ~dir ~experiment =
  Filename.concat dir (experiment ^ ".failures.jsonl")

let failure_to_json f =
  let b = Buffer.create 256 in
  let field ?(first = false) name enc =
    if not first then Buffer.add_char b ',';
    Jsonu.escape_string b name;
    Buffer.add_char b ':';
    enc ()
  in
  Buffer.add_char b '{';
  field ~first:true "key" (fun () -> Jsonu.escape_string b f.key);
  field "experiment" (fun () -> Jsonu.escape_string b f.experiment);
  field "sweep_point" (fun () ->
      Buffer.add_string b (string_of_int f.sweep_point));
  field "trial" (fun () -> Buffer.add_string b (string_of_int f.trial));
  field "seed" (fun () -> Buffer.add_string b (string_of_int f.seed));
  field "error" (fun () -> Jsonu.escape_string b f.error);
  field "backtrace" (fun () -> Jsonu.escape_string b f.backtrace);
  field "wall_ns" (fun () -> Jsonu.add_float b f.wall_ns);
  Buffer.add_char b '}';
  Buffer.contents b

let failure_of_json line =
  match Jsonu.parse line with
  | Some (Jsonu.Obj fields) -> (
    try
      Some
        {
          key = Jsonu.str fields "key";
          experiment = Jsonu.str fields "experiment";
          sweep_point = Jsonu.int_ fields "sweep_point";
          trial = Jsonu.int_ fields "trial";
          seed = Jsonu.int_ fields "seed";
          error = Jsonu.str fields "error";
          backtrace = Jsonu.str fields "backtrace";
          wall_ns = Jsonu.num fields "wall_ns";
        }
    with Jsonu.Malformed -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Reading *)

let load file =
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line -> (
            match failure_of_json line with
            | Some f -> go (f :: acc)
            | None -> go acc)
        in
        go [])
  end

(* ------------------------------------------------------------------ *)
(* Writing

   The sink opens its file lazily so a clean run leaves no empty
   .failures.jsonl behind.  [create] removes any earlier quarantine
   eagerly: every job without a record runs again in this invocation,
   so the file only ever holds the failures of the latest run of each
   job, and never a key that also has a record. *)

type t = {
  dir : string;
  experiment : string;
  mutable oc : out_channel option;
  mutable closed : bool;
}

let create ~dir ~experiment =
  let file = store_path ~dir ~experiment in
  if Sys.file_exists file then Sys.remove file;
  { dir; experiment; oc = None; closed = false }

let path t = store_path ~dir:t.dir ~experiment:t.experiment

let channel t =
  match t.oc with
  | Some oc -> oc
  | None ->
    if t.closed then invalid_arg "Fault.write: sink is closed";
    Sink.mkdir_p t.dir;
    let oc =
      open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 (path t)
    in
    t.oc <- Some oc;
    oc

let write t f =
  let oc = channel t in
  Io_fault.guarded_write ~oc (failure_to_json f ^ "\n")

let close t =
  t.closed <- true;
  match t.oc with
  | None -> ()
  | Some oc ->
    t.oc <- None;
    close_out oc
