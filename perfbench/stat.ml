(* Order statistics, process memory and machine facts for the benchmark. *)

let now = Service.Mono.now

(* Linear-interpolated quantile of an unsorted sample, as numpy's
   default; [nan] on an empty sample. *)
let quantile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let r = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor r) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs
       /. float_of_int (List.length xs))

(* Quantile of a [Stats.Hdr] histogram, interpolated inside the bucket
   that holds the rank.  [Hdr.quantile] returns the bucket's upper
   bound, which repeats exactly from run to run; spreading the rank
   linearly over the bucket's width keeps every digit measured. *)
let hdr_quantile h q =
  let total = Stats.Hdr.count h in
  if total = 0 then nan
  else begin
    let rank = q *. float_of_int total in
    let width u =
      if u < 64 then 1
      else
        let rec log2 v k = if v <= 1 then k else log2 (v lsr 1) (k + 1) in
        1 lsl (log2 u 0 - 6)
    in
    let rec walk cum = function
      | [] -> float_of_int (Stats.Hdr.max_value h)
      | (u, c) :: rest ->
        let cum' = cum +. float_of_int c in
        if cum' >= rank then
          let w = width u in
          let lo = float_of_int (u - w + 1) in
          lo +. ((rank -. cum) /. float_of_int c *. float_of_int w)
        else walk cum' rest
    in
    walk 0. (Stats.Hdr.to_alist h)
  end

(* A field of /proc/<pid>/status in MiB ([VmHWM], [VmRSS]); [nan] if the
   file or field is missing. *)
let proc_status_mb ?(pid = "self") field =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> nan
      | line -> (
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = field -> (
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          try Scanf.sscanf v " %d kB" (fun kb -> float_of_int kb /. 1024.)
          with Scanf.Scan_failure _ | End_of_file -> nan)
        | _ -> go ())
    in
    let v = go () in
    close_in ic;
    v

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | l -> go (l :: acc)
    in
    let ls = go [] in
    close_in ic;
    ls

let mem_total_mb () =
  List.fold_left
    (fun acc l ->
      try Scanf.sscanf l "MemTotal: %d kB" (fun kb -> float_of_int kb /. 1024.)
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> acc)
    nan
    (read_lines "/proc/meminfo")

(* Filesystem type of the longest mount point that prefixes [dir]. *)
let fs_type dir =
  let dir = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let prefixes mnt =
    mnt = "/"
    || dir = mnt
    || String.length dir > String.length mnt
       && String.sub dir 0 (String.length mnt + 1) = mnt ^ "/"
  in
  let best =
    List.fold_left
      (fun (blen, bty) l ->
        match String.split_on_char ' ' l with
        | _ :: mnt :: ty :: _ when prefixes mnt && String.length mnt > blen ->
          (String.length mnt, ty)
        | _ -> (blen, bty))
      (-1, "unknown")
      (read_lines "/proc/mounts")
  in
  snd best

let machine ~journal_dir =
  Jsonu.Obj
    [
      ("nproc", Jsonu.Int (Domain.recommended_domain_count ()));
      ("mem_total_mb", Jsonu.Num (mem_total_mb ()));
      ("journal_fs", Jsonu.Str (fs_type journal_dir));
      ("ocaml", Jsonu.Str Sys.ocaml_version);
      ("os", Jsonu.Str Sys.os_type);
    ]
