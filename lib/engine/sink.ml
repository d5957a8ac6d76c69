(* The schema version is bumped whenever the record or manifest layout
   changes incompatibly.  "2" added the per-record [attempt] field and the
   manifest [schema]/[git]/[status] fields (fault-tolerance layer).  "3"
   dropped [attempt] with retries: a schema-2 store may hold records
   measured on a retry seed, so it must not be resumed. *)
let schema_version = "3"

type record = {
  key : string;
  experiment : string;
  sweep_point : int;
  point_label : string;
  trial : int;
  seed : int;
  params : (string * float) list;
  values : (string * float) list;
  wall_ns : float;
}

let record_to_json r =
  let b = Buffer.create 256 in
  let field ?(first = false) name enc =
    if not first then Buffer.add_char b ',';
    Jsonu.escape_string b name;
    Buffer.add_char b ':';
    enc ()
  in
  Buffer.add_char b '{';
  field ~first:true "key" (fun () -> Jsonu.escape_string b r.key);
  field "experiment" (fun () -> Jsonu.escape_string b r.experiment);
  field "sweep_point" (fun () -> Buffer.add_string b (string_of_int r.sweep_point));
  field "point_label" (fun () -> Jsonu.escape_string b r.point_label);
  field "trial" (fun () -> Buffer.add_string b (string_of_int r.trial));
  field "seed" (fun () -> Buffer.add_string b (string_of_int r.seed));
  field "params" (fun () -> Jsonu.add_assoc b r.params);
  field "values" (fun () -> Jsonu.add_assoc b r.values);
  field "wall_ns" (fun () -> Jsonu.add_float b r.wall_ns);
  Buffer.add_char b '}';
  Buffer.contents b

let record_of_json line =
  match Jsonu.parse line with
  | Some (Jsonu.Obj fields) -> (
    try
      Some
        {
          key = Jsonu.str fields "key";
          experiment = Jsonu.str fields "experiment";
          sweep_point = Jsonu.int_ fields "sweep_point";
          point_label = Jsonu.str fields "point_label";
          trial = Jsonu.int_ fields "trial";
          seed = Jsonu.int_ fields "seed";
          params = Jsonu.assoc fields "params";
          values = Jsonu.assoc fields "values";
          wall_ns = Jsonu.num fields "wall_ns";
        }
    with Jsonu.Malformed -> None)
  | _ -> None

let float_eq a b = a = b || (Float.is_nan a && Float.is_nan b)

let assoc_eq a b =
  List.length a = List.length b
  && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && float_eq v1 v2) a b

let equal_ignoring_wall a b =
  a.key = b.key && a.experiment = b.experiment
  && a.sweep_point = b.sweep_point
  && a.point_label = b.point_label
  && a.trial = b.trial && a.seed = b.seed
  && assoc_eq a.params b.params
  && assoc_eq a.values b.values

(* ------------------------------------------------------------------ *)
(* Filesystem *)

let rec mkdir_p dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      failwith (Printf.sprintf "mkdir_p: %s exists and is not a directory" dir)
  end
  else begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir ->
      (* lost a race with a concurrent mkdir; fine *)
      ()
  end

(* ------------------------------------------------------------------ *)
(* Writing *)

type t = { oc : out_channel; file : string }

let store_path ~dir ~experiment = Filename.concat dir (experiment ^ ".jsonl")

(* A crash can leave the store ending in a partial record with no
   newline.  Appending straight after it would glue the next record onto
   the garbage and corrupt both, so terminate the dangling line first —
   it then parses as one malformed line that every scan skips. *)
let ends_mid_line file =
  Sys.file_exists file
  &&
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let size = in_channel_length ic in
      size > 0
      &&
      (seek_in ic (size - 1);
       input_char ic <> '\n'))

let create ~dir ~experiment ~append =
  mkdir_p dir;
  let file = store_path ~dir ~experiment in
  let flags =
    if append then [ Open_wronly; Open_append; Open_creat ]
    else [ Open_wronly; Open_trunc; Open_creat ]
  in
  let needs_newline = append && ends_mid_line file in
  let oc = open_out_gen flags 0o644 file in
  if needs_newline then begin
    output_char oc '\n';
    flush oc
  end;
  { oc; file }

let path t = t.file

let write t r =
  Io_fault.guarded_write ~oc:t.oc (record_to_json r ^ "\n")

let close t = close_out t.oc

(* ------------------------------------------------------------------ *)
(* Run manifest *)

let manifest_path dir = Filename.concat dir "manifest.json"

let write_manifest ~dir fields =
  mkdir_p dir;
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "  ";
      Jsonu.escape_string b k;
      Buffer.add_string b ": ";
      Jsonu.escape_string b v)
    fields;
  Buffer.add_string b "\n}\n";
  let file = manifest_path dir in
  let oc = open_out file in
  output_string oc (Buffer.contents b);
  close_out oc

let read_manifest ~dir =
  let file = manifest_path dir in
  if not (Sys.file_exists file) then None
  else
    let ic = open_in_bin file in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Jsonu.parse contents with
    | Some (Jsonu.Obj fields) ->
      let strings =
        List.filter_map
          (fun (k, v) -> match v with Jsonu.Str s -> Some (k, s) | _ -> None)
          fields
      in
      Some strings
    | _ -> None
