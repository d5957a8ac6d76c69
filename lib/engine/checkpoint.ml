let fold_lines file f init =
  if not (Sys.file_exists file) then init
  else begin
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> acc
          | line -> go (f acc line)
        in
        go init)
  end

let records file =
  List.rev
    (fold_lines file
       (fun acc line ->
         match Sink.record_of_json line with
         | Some r -> r :: acc
         | None -> acc)
       [])

(* ------------------------------------------------------------------ *)
(* Store scan *)

type scan = {
  keys : (string, unit) Hashtbl.t;
  records : int;
  duplicates : int;
  malformed_mid : int;
  malformed_tail : bool;
}

let empty_scan () =
  {
    keys = Hashtbl.create 16;
    records = 0;
    duplicates = 0;
    malformed_mid = 0;
    malformed_tail = false;
  }

let scan_store file =
  let keys = Hashtbl.create 256 in
  let records = ref 0 in
  let duplicates = ref 0 in
  let malformed = ref 0 in
  let last_malformed = ref false in
  fold_lines file
    (fun () line ->
      match Sink.record_of_json line with
      | Some r ->
        incr records;
        last_malformed := false;
        if Hashtbl.mem keys r.Sink.key then incr duplicates
        else Hashtbl.replace keys r.Sink.key ()
      | None ->
        incr malformed;
        last_malformed := true)
    ();
  (* A malformed final line is the expected artifact of a crash mid-write
     (and of the newline {!Sink.create} appends on resume to terminate
     it); anything malformed before that is corruption worth surfacing. *)
  {
    keys;
    records = !records;
    duplicates = !duplicates;
    malformed_mid = (!malformed - if !last_malformed then 1 else 0);
    malformed_tail = !last_malformed;
  }

let pending ~completed ~key jobs =
  let skipped = ref 0 in
  let todo =
    List.filter
      (fun job ->
        if Hashtbl.mem completed (key job) then begin
          incr skipped;
          false
        end
        else true)
      jobs
  in
  (todo, !skipped)

(* ------------------------------------------------------------------ *)
(* Manifest validation *)

let validate_manifest ~manifest ~ids ~seed ~trials ~scale =
  (* Fields absent from the manifest are skipped — older stores recorded
     less; fields that are present must agree exactly, because mixing
     records from different seeds/sweeps in one store is silent data
     corruption. *)
  let mismatch field stored given =
    Error
      (Printf.sprintf
         "manifest mismatch: field %S is %s in the store's manifest.json but \
          this invocation uses %s; resume must reuse the original \
          parameters (or run without --resume to start a fresh store)"
         field stored given)
  in
  let check field given ok =
    match List.assoc_opt field manifest with
    | None -> Ok ()
    | Some stored -> if ok stored then Ok () else mismatch field stored given
  in
  let ( let* ) = Result.bind in
  let* () =
    check "schema" Sink.schema_version (fun s -> s = Sink.schema_version)
  in
  let* () = check "seed" (string_of_int seed) (fun s -> s = string_of_int seed) in
  let* () =
    check "trials" (string_of_int trials) (fun s -> s = string_of_int trials)
  in
  let* () =
    check "scale" (Printf.sprintf "%g" scale) (fun s ->
        match float_of_string_opt s with
        | Some f -> f = scale
        | None -> false)
  in
  match List.assoc_opt "experiments" manifest with
  | None -> Ok ()
  | Some stored ->
    let stored_ids = String.split_on_char ' ' stored in
    let missing = List.filter (fun id -> not (List.mem id stored_ids)) ids in
    (match missing with
    | [] -> Ok ()
    | id :: _ ->
      mismatch "experiments" stored
        (Printf.sprintf "%S (not part of the original run)" id))
