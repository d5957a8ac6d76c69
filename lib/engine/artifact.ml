(* Committed benchmark artifacts: one record of closures per kind, with
   the file handling every kind shares (header dispatch, numbered save,
   check = audit @ regress) written once here. *)

type 'a kind = {
  name : string;
  schema : int;
  prefix : string;
  encode : 'a -> string;
  decode : (string * Jsonu.t) list -> 'a;
  render : 'a -> string;
  summary : 'a -> string;
  audit : 'a -> string list;
  regress : threshold:float -> baseline:'a -> current:'a -> string list;
}

type any = Any : 'a kind -> any

let line ~name ~schema fields =
  Jsonu.to_string
    (Jsonu.Obj
       (("kind", Jsonu.Str name) :: ("schema", Jsonu.Int schema) :: fields))
  ^ "\n"

let finding cond fmt =
  Printf.ksprintf (fun s -> if cond then Some s else None) fmt

let read path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error e -> Error e

let parse text =
  match Jsonu.parse text with
  | Some (Jsonu.Obj fields) -> Ok fields
  | _ -> Error "not a JSON object (truncated or hand-edited?)"

let decode k fields =
  match (Jsonu.str fields "kind", Jsonu.int_ fields "schema") with
  | exception Jsonu.Malformed -> Error "no kind/schema header"
  | name, _ when name <> k.name ->
    Error (Printf.sprintf "a %s document, not %s" name k.name)
  | _, schema when schema <> k.schema ->
    Error
      (Printf.sprintf "%s schema %d (this build reads %d)" k.name schema
         k.schema)
  | _ -> (
    try Ok (k.decode fields)
    with Jsonu.Malformed ->
      Error (Printf.sprintf "malformed %s document (schema drift?)" k.name))

let of_string k text = Result.bind (parse text) (decode k)

let load k path =
  Result.bind (read path) (fun text ->
      Result.map_error (fun e -> path ^ ": " ^ e) (of_string k text))

let save k ~dir a =
  Sink.mkdir_p dir;
  let rec free i =
    let path = Filename.concat dir (Printf.sprintf "%s%d.json" k.prefix i) in
    if Sys.file_exists path then free (i + 1) else path
  in
  let path = free 0 in
  Out_channel.with_open_bin path (fun oc -> output_string oc (k.encode a));
  path

let check k ~threshold ~baseline ~current =
  k.audit current @ k.regress ~threshold ~baseline ~current

(* [<prefix><digits>.json]: "BENCH_SERVICE_0.json" is not in the
   "BENCH_" numbering, because "SERVICE_0" is not an index. *)
let has_prefix ~prefix file =
  let p = String.length prefix and n = String.length file in
  n > p + 5
  && String.starts_with ~prefix file
  && Filename.check_suffix file ".json"
  && String.for_all
       (function '0' .. '9' -> true | _ -> false)
       (String.sub file p (n - p - 5))

let numbered kinds file =
  List.exists (fun (Any k) -> has_prefix ~prefix:k.prefix file) kinds

let inspect kinds path =
  match Result.bind (read path) parse with
  | Error e -> (None, [ e ])
  | Ok fields -> (
    let name = try Jsonu.str fields "kind" with Jsonu.Malformed -> "" in
    match List.find_opt (fun (Any k) -> k.name = name) kinds with
    | None -> (None, [ Printf.sprintf "unknown artifact kind %S" name ])
    | Some (Any k) -> (
      let misfiled =
        if has_prefix ~prefix:k.prefix (Filename.basename path) then []
        else
          [
            Printf.sprintf "a %s artifact outside its %s<k>.json numbering"
              k.name k.prefix;
          ]
      in
      match decode k fields with
      | Error e -> (None, misfiled @ [ e ])
      | Ok a -> (Some (k.summary a), misfiled @ k.audit a)))
