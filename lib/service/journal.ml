type record =
  | Grant of { name : int; epoch : int; client : int; token : int }
  | Release of { name : int; epoch : int }
  | Expire of { name : int; epoch : int }

type t = { oc : out_channel; fd : Unix.file_descr }

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected), table-driven. *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* ------------------------------------------------------------------ *)
(* Record codec.  Payload: u8 kind, u32 name, u64 epoch, then for
   grants u32 client and u32 token.  Fixed widths, big-endian. *)

let add_u64 b v =
  Wire.add_u32 b ((v lsr 32) land 0xffffffff);
  Wire.add_u32 b (v land 0xffffffff)

let get_u64 buf off = (Wire.get_u32 buf off lsl 32) lor Wire.get_u32 buf (off + 4)

let encode_payload r =
  let b = Buffer.create 32 in
  (match r with
  | Grant { name; epoch; client; token } ->
    Wire.add_u8 b 1;
    Wire.add_u32 b name;
    add_u64 b epoch;
    Wire.add_u32 b client;
    Wire.add_u32 b token
  | Release { name; epoch } ->
    Wire.add_u8 b 2;
    Wire.add_u32 b name;
    add_u64 b epoch
  | Expire { name; epoch } ->
    Wire.add_u8 b 3;
    Wire.add_u32 b name;
    add_u64 b epoch);
  Buffer.contents b

let decode_payload buf off len =
  if len < 13 then None
  else
    let name = Wire.get_u32 buf (off + 1) in
    let epoch = get_u64 buf (off + 5) in
    match (Wire.get_u8 buf off, len) with
    | 1, 21 ->
      Some
        (Grant
           {
             name;
             epoch;
             client = Wire.get_u32 buf (off + 13);
             token = Wire.get_u32 buf (off + 17);
           })
    | 2, 13 -> Some (Release { name; epoch })
    | 3, 13 -> Some (Expire { name; epoch })
    | _ -> None

(* Generous bound: real payloads are <= 21 bytes, so a length above
   this is framing damage, not a future record format. *)
let max_payload = 256

let frame r =
  let payload = encode_payload r in
  let b = Buffer.create 32 in
  Wire.add_u32 b (String.length payload);
  Wire.add_u32 b (crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Appending *)

let open_append ~path =
  match open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path with
  | oc -> Ok { oc; fd = Unix.descr_of_out_channel oc }
  | exception Sys_error e -> Error (Printf.sprintf "journal %s: %s" path e)

let append t r =
  (* guarded_write flushes; the fsync makes the record power-loss
     durable before the caller acts on it (write-ahead). *)
  Engine.Io_fault.guarded_write ~oc:t.oc (frame r);
  Unix.fsync t.fd

let close t = try close_out t.oc with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Scanning *)

type scan = {
  records : record list;
  torn_tail : bool;
  damaged : int;
  bytes : int;
}

let scan ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error (Printf.sprintf "journal %s: %s" path e)
  | ic ->
    let len = in_channel_length ic in
    let buf = Bytes.create len in
    really_input ic buf 0 len;
    close_in ic;
    let records = ref [] in
    let damaged = ref 0 in
    let torn = ref false in
    let o = ref 0 in
    let continue = ref true in
    while !continue do
      let remaining = len - !o in
      if remaining = 0 then continue := false
      else if remaining < 8 then begin
        (* header itself is cut off: crash mid-append *)
        torn := true;
        continue := false
      end
      else begin
        let plen = Wire.get_u32 buf !o in
        if plen < 13 || plen > max_payload then begin
          (* Unframeable from here on: count the wreckage once and
             stop — doctor reports it, recovery refuses it. *)
          incr damaged;
          continue := false
        end
        else if remaining < 8 + plen then begin
          torn := true;
          continue := false
        end
        else begin
          let crc = Wire.get_u32 buf (!o + 4) in
          let payload = Bytes.sub_string buf (!o + 8) plen in
          if crc32 payload <> crc then incr damaged
          else begin
            match decode_payload buf (!o + 8) plen with
            | Some r -> records := r :: !records
            | None -> incr damaged
          end;
          o := !o + 8 + plen
        end
      end
    done;
    Ok { records = List.rev !records; torn_tail = !torn; damaged = !damaged; bytes = len }

(* ------------------------------------------------------------------ *)
(* Replay *)

type live = {
  grants : (int * (int * int * int)) list;
  next_epoch : int;
  double_grants : int;
  stale_releases : int;
}

let replay records =
  let live = Hashtbl.create 64 in
  let max_epoch = ref 0 in
  let doubles = ref 0 in
  let stale = ref 0 in
  let drop name epoch =
    match Hashtbl.find_opt live name with
    | Some (e, _, _) when e = epoch -> Hashtbl.remove live name
    | Some _ | None -> incr stale
  in
  List.iter
    (fun r ->
      (match r with
      | Grant { name; epoch; client; token } ->
        if Hashtbl.mem live name then incr doubles;
        Hashtbl.replace live name (epoch, client, token)
      | Release { name; epoch } | Expire { name; epoch } -> drop name epoch);
      let epoch =
        match r with
        | Grant { epoch; _ } | Release { epoch; _ } | Expire { epoch; _ } ->
          epoch
      in
      if epoch > !max_epoch then max_epoch := epoch)
    records;
  {
    grants =
      Hashtbl.to_seq live |> List.of_seq
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    next_epoch = !max_epoch + 1;
    double_grants = !doubles;
    stale_releases = !stale;
  }

let read ~path = Result.map (fun s -> (s, replay s.records)) (scan ~path)

let audit_dir ~served dir =
  (* [problem c fmt ...] / [note c fmt ...]: that line when [c] holds *)
  let problem c fmt =
    Printf.ksprintf (fun m -> if c then [ `Problem m ] else []) fmt
  in
  let note c fmt = Printf.ksprintf (fun m -> if c then [ `Note m ] else []) fmt in
  let audit f =
    match read ~path:(Filename.concat dir f) with
    | Error e -> problem true "%s: unreadable journal: %s" f e
    | Ok (s, live) ->
      let held = List.length live.grants in
      List.concat
        [
          [
            `Info
              (Printf.sprintf "%s: %d record(s), %d live grant(s), next epoch %d"
                 f (List.length s.records) held live.next_epoch);
          ];
          problem (s.damaged > 0)
            "%s: %d damaged record(s) (CRC/framing on a complete record) — \
             renamed --recover will refuse this journal"
            f s.damaged;
          note s.torn_tail
            "%s: torn tail record (crash artifact; --recover tolerates and \
             compacts it away)"
            f;
          problem (live.double_grants > 0)
            "%s: replay observed %d duplicate grant(s) of a live name — the \
             write-ahead discipline was violated"
            f live.double_grants;
          note (held > 0 && not served)
            "%s: %d live grant(s) and no daemon serving in this directory — \
             orphaned journal; restart renamed with --journal %s --recover"
            f held f;
        ]
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".journal")
  |> List.sort compare |> List.concat_map audit

(* ------------------------------------------------------------------ *)
(* Compaction *)

let rewrite ~path grants =
  let tmp = path ^ ".tmp" in
  match open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp with
  | exception Sys_error e -> Error (Printf.sprintf "journal %s: %s" tmp e)
  | oc -> (
    match
      List.iter
        (fun (name, (epoch, client, token)) ->
          output_string oc (frame (Grant { name; epoch; client; token })))
        grants;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc);
      close_out oc;
      Sys.rename tmp path
    with
    | () -> Ok ()
    | exception Sys_error e ->
      (try close_out oc with Sys_error _ -> ());
      Error (Printf.sprintf "journal compaction: %s" e)
    | exception Unix.Unix_error (e, _, _) ->
      (try close_out oc with Sys_error _ -> ());
      Error (Printf.sprintf "journal compaction: %s" (Unix.error_message e)))
