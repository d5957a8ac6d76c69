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

(* ------------------------------------------------------------------ *)
(* doctor's audit of a store directory *)

(* [problem c fmt ...] / [note c fmt ...]: that one line when [c]
   holds, else none. *)
let problem c fmt = Printf.ksprintf (fun m -> if c then [ `Problem m ] else []) fmt
let note c fmt = Printf.ksprintf (fun m -> if c then [ `Note m ] else []) fmt

let audit_manifest dir =
  match Sink.read_manifest ~dir with
  | None -> [ `Note "no readable manifest.json — seed-tree checks skipped" ]
  | Some m ->
    let field k = List.assoc_opt k m in
    let schema = Option.value (field "schema") ~default:Sink.schema_version in
    List.concat
      [
        problem (schema <> Sink.schema_version)
          "manifest schema is %S; this binary writes %S" schema
          Sink.schema_version;
        note (field "schema" = None)
          "manifest has no schema field (pre-fault-tolerance run)";
        note (field "status" = Some "interrupted")
          "run status is \"interrupted\" — finish it with --resume";
        note (field "status" = Some "running")
          "run status is \"running\" — either a run is live or it was \
           killed without cleanup (resume is safe)";
        Option.fold ~none:[] ~some:(fun g -> [ `Info ("manifest: git " ^ g) ])
          (field "git");
      ]

(* One store: its scan, every record's seed re-derived from the root
   seed and the record's coordinates, and each quarantined job. *)
let audit_store ~dir ~root file =
  let path = Filename.concat dir file in
  let s = scan_store path in
  let reseeded root (r : Sink.record) =
    Seed_tree.derive ~root ~experiment:r.experiment
      ~sweep_point:r.sweep_point ~trial:r.trial
    <> r.seed
  in
  let mismatches =
    Option.fold ~none:0
      ~some:(fun root -> List.length (List.filter (reseeded root) (records path)))
      root
  in
  let experiment = Filename.chop_suffix file ".jsonl" in
  List.concat
    [
      [
        `Info
          (Printf.sprintf "%s: %d record(s), %d distinct key(s)" file s.records
             (Hashtbl.length s.keys));
      ];
      problem (s.duplicates > 0) "%s: %d duplicate key(s)" file s.duplicates;
      problem (s.malformed_mid > 0) "%s: %d malformed mid-file line(s)" file
        s.malformed_mid;
      note s.malformed_tail
        "%s: truncated tail line (crash artifact; --resume repairs and \
         re-runs it)"
        file;
      problem (mismatches > 0)
        "%s: %d record(s) whose seed does not match the seed tree (wrong \
         --seed, or records from another run mixed in)"
        file mismatches;
      Fault.load (Fault.store_path ~dir ~experiment)
      |> List.sort (fun (a : Fault.failure) b -> compare a.key b.key)
      |> List.concat_map (fun (f : Fault.failure) ->
             problem true "%s: job %s quarantined (raised at seed %d): %s" file
               f.key f.seed f.error);
    ]

let audit_stores dir =
  let root =
    Option.bind (Sink.read_manifest ~dir) (fun m ->
        Option.bind (List.assoc_opt "seed" m) int_of_string_opt)
  in
  let is_store f =
    Filename.check_suffix f ".jsonl"
    && not (Filename.check_suffix f ".failures.jsonl")
  in
  match List.filter is_store (Array.to_list (Sys.readdir dir)) with
  | [] -> [ `Note (Printf.sprintf "no .jsonl stores in %s" dir) ]
  | stores -> List.concat_map (audit_store ~dir ~root) (List.sort compare stores)
