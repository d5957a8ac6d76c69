type crash_point = Before_op | After_win

type crash = { pid : int; op : int; point : crash_point }
type pause = { pid : int; op : int; spins : int }

type t = {
  seed : int;
  procs : int;
  domains : int;
  algo : string;
  capacity : int;
  name_bound : int;
  crash_frac : float;
  pause_frac : float;
  max_spins : int;
  crashes : crash list;
  pauses : pause list;
}

(* ------------------------------------------------------------------ *)
(* Derivation *)

(* The plan stream is child (-1) of the root: Domain_runner hands child
   [pid] to process [pid] and pids are never negative, so arming faults
   consumes randomness disjoint from every process's coins. *)
let plan_rng seed = Prng.Splitmix.split_at (Prng.Splitmix.of_int seed) (-1)

(* First [k] entries of a Fisher-Yates pass over [0..procs-1]: a uniform
   k-subset, returned sorted so derivation order is canonical. *)
let sample_pids rng ~procs k =
  let arr = Array.init procs Fun.id in
  for i = 0 to k - 1 do
    let j = i + Prng.Splitmix.int rng (procs - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  List.sort_uniq compare (Array.to_list (Array.sub arr 0 k))

let make ~seed ~procs ?domains ~algo ~capacity ?name_bound
    ?(crash_frac = 0.) ?(pause_frac = 0.) ?(max_spins = 512) () =
  if procs < 1 then invalid_arg "Fault_plan.make: procs must be >= 1";
  let domains =
    Option.value domains ~default:(Shm.Domain_runner.default_domains ~procs ())
  in
  if domains < 1 then invalid_arg "Fault_plan.make: domains must be >= 1";
  if capacity < 1 then invalid_arg "Fault_plan.make: capacity must be >= 1";
  let name_bound = Option.value name_bound ~default:capacity in
  if name_bound < 1 then invalid_arg "Fault_plan.make: name_bound must be >= 1";
  let check_frac what f =
    if not (f >= 0. && f <= 1.) then
      invalid_arg (Printf.sprintf "Fault_plan.make: %s must be in [0, 1]" what)
  in
  check_frac "crash_frac" crash_frac;
  check_frac "pause_frac" pause_frac;
  if max_spins < 1 then invalid_arg "Fault_plan.make: max_spins must be >= 1";
  let rng = plan_rng seed in
  let n_crash = int_of_float (crash_frac *. float_of_int procs) in
  let crashes =
    List.map
      (fun pid ->
        let point = if Prng.Splitmix.bool rng then After_win else Before_op in
        let op = Prng.Splitmix.int_in rng 1 3 in
        { pid; op; point })
      (sample_pids rng ~procs n_crash)
  in
  let n_pause = int_of_float (pause_frac *. float_of_int procs) in
  let pauses =
    List.map
      (fun pid ->
        let op = Prng.Splitmix.int_in rng 1 4 in
        let spins = Prng.Splitmix.int_in rng 1 max_spins in
        { pid; op; spins })
      (sample_pids rng ~procs n_pause)
  in
  {
    seed;
    procs;
    domains;
    algo;
    capacity;
    name_bound;
    crash_frac;
    pause_frac;
    max_spins;
    crashes;
    pauses;
  }

let crash_for t pid = List.find_opt (fun (c : crash) -> c.pid = pid) t.crashes
let pause_for t pid = List.find_opt (fun (p : pause) -> p.pid = pid) t.pauses

let equal a b = a = b

(* ------------------------------------------------------------------ *)
(* JSON *)

let version = 1

let point_to_string = function
  | Before_op -> "before-op"
  | After_win -> "after-win"

let point_of_string = function
  | "before-op" -> Ok Before_op
  | "after-win" -> Ok After_win
  | s -> Error (Printf.sprintf "unknown crash point %S" s)

let to_json t =
  let open Jsonu in
  to_string
    (Obj
       [
         ("kind", Str "chaos-plan");
         ("version", Int version);
         ("seed", Int t.seed);
         ("procs", Int t.procs);
         ("domains", Int t.domains);
         ("algo", Str t.algo);
         ("capacity", Int t.capacity);
         ("name_bound", Int t.name_bound);
         ("crash_frac", Num t.crash_frac);
         ("pause_frac", Num t.pause_frac);
         ("max_spins", Int t.max_spins);
         ( "crashes",
           Arr
             (List.map
                (fun (c : crash) ->
                  Obj
                    [
                      ("pid", Int c.pid);
                      ("op", Int c.op);
                      ("point", Str (point_to_string c.point));
                    ])
                t.crashes) );
         ( "pauses",
           Arr
             (List.map
                (fun (p : pause) ->
                  Obj
                    [
                      ("pid", Int p.pid);
                      ("op", Int p.op);
                      ("spins", Int p.spins);
                    ])
                t.pauses) );
       ])

let of_json s =
  let open Jsonu in
  match parse s with
  | None -> Error "not valid JSON (or outside the repository's JSON subset)"
  | Some json -> (
    try
      let fields = obj json in
      if str fields "kind" <> "chaos-plan" then
        Error "field \"kind\" is not \"chaos-plan\""
      else if int_ fields "version" <> version then
        Error
          (Printf.sprintf "plan version %d; this binary reads version %d"
             (int_ fields "version") version)
      else begin
        let crash_of_fields fs =
          match point_of_string (str fs "point") with
          | Error e -> failwith e
          | Ok point -> { pid = int_ fs "pid"; op = int_ fs "op"; point }
        in
        let pause_of_fields fs =
          { pid = int_ fs "pid"; op = int_ fs "op"; spins = int_ fs "spins" }
        in
        Ok
          {
            seed = int_ fields "seed";
            procs = int_ fields "procs";
            domains = int_ fields "domains";
            algo = str fields "algo";
            capacity = int_ fields "capacity";
            name_bound = int_ fields "name_bound";
            crash_frac = num fields "crash_frac";
            pause_frac = num fields "pause_frac";
            max_spins = int_ fields "max_spins";
            crashes =
              List.map (fun v -> crash_of_fields (obj v)) (arr fields "crashes");
            pauses =
              List.map (fun v -> pause_of_fields (obj v)) (arr fields "pauses");
          }
      end
    with
    | Malformed -> Error "missing or mistyped plan field"
    | Failure e -> Error e)

let save ~file t =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_json t);
      output_char oc '\n')

let load ~file =
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "%s: no such file" file)
  else
    let text = String.trim (In_channel.with_open_bin file In_channel.input_all) in
    Result.map
      (fun t -> (t, if to_json t = text then `Canonical else `Edited))
      (of_json text)

(* ------------------------------------------------------------------ *)
(* Recorded plans in a directory *)

let prefix = "chaos_plan_"
let file ~seed = Printf.sprintf "%s%d.json" prefix seed
let is_file f = String.starts_with ~prefix f && Filename.check_suffix f ".json"
