(* Execute a fault plan against the real multicore substrate.

   The injector lives entirely in Domain_runner's hooks middleware; the
   uninstrumented hot path is untouched.  Per-process state is indexed
   by pid and each pid runs on exactly one domain, so the op counters
   and fired slots are single-writer; the runner's joins publish them
   to the main thread before the verdict reads them. *)

exception Crashed

type fired = { pid : int; op : int; point : Fault_plan.crash_point }

type verdict = {
  plan : Fault_plan.t;
  fired : fired list;
  crashed : bool array;
  survivors : int;
  names_assigned : int;
  max_name : int;
  slots_taken : int;
  leaked : int;
  violations : string list;
}

type outcome = {
  verdict : verdict;
  result : Shm.Domain_runner.result;
  races : Analysis.Hb.race list option;
}

let ok v = v.violations = []

(* ------------------------------------------------------------------ *)
(* Injection *)

type injector = {
  ops : int array;  (* per-pid 1-based TAS counter, single-writer *)
  crash_of : Fault_plan.crash option array;
  pause_of : Fault_plan.pause option array;
  fired_at : fired option array;  (* single-writer, published by join *)
  wins : int Atomic.t;
  releases : int Atomic.t;
}

let injector_make plan =
  let procs = plan.Fault_plan.procs in
  {
    ops = Array.make procs 0;
    crash_of = Array.init procs (Fault_plan.crash_for plan);
    pause_of = Array.init procs (Fault_plan.pause_for plan);
    fired_at = Array.make procs None;
    wins = Atomic.make 0;
    releases = Atomic.make 0;
  }

let injector_hooks inj =
  {
    Shm.Domain_runner.null_hooks with
    tas =
      (fun ~domain:_ ~pid ~loc:_ f ->
        let op = inj.ops.(pid) + 1 in
        inj.ops.(pid) <- op;
        (match inj.pause_of.(pid) with
        | Some pz when pz.Fault_plan.op = op ->
          for _ = 1 to pz.Fault_plan.spins do
            Domain.cpu_relax ()
          done
        | _ -> ());
        (match inj.crash_of.(pid) with
        | Some { Fault_plan.point = Before_op; op = armed; _ }
          when inj.fired_at.(pid) = None && op >= armed ->
          inj.fired_at.(pid) <- Some { pid; op; point = Fault_plan.Before_op };
          raise Crashed
        | _ -> ());
        let won = f () in
        if won then begin
          Atomic.incr inj.wins;
          match inj.crash_of.(pid) with
          | Some { Fault_plan.point = After_win; op = armed; _ }
            when inj.fired_at.(pid) = None && op >= armed ->
            inj.fired_at.(pid) <- Some { pid; op; point = Fault_plan.After_win };
            raise Crashed
          | _ -> ()
        end;
        won);
    release =
      (fun ~domain:_ ~pid:_ ~loc:_ f ->
        f ();
        Atomic.incr inj.releases);
  }

(* ------------------------------------------------------------------ *)
(* Verdict *)

let judge plan inj (result : Shm.Domain_runner.result) =
  let procs = plan.Fault_plan.procs in
  let fired =
    Array.to_list inj.fired_at |> List.filter_map Fun.id
    (* array order is pid order *)
  in
  let crashed = Array.map Option.is_some inj.fired_at in
  let survivors =
    Array.fold_left (fun n c -> if c then n else n + 1) 0 crashed
  in
  let assigned = List.filter_map Fun.id (Array.to_list result.names) in
  let names_assigned = List.length assigned in
  let max_name = Shm.Domain_runner.max_name result in
  let slots_taken = Atomic.get inj.wins - Atomic.get inj.releases in
  let leaked = slots_taken - names_assigned in
  let violations = ref [] in
  let check name bad = if bad then violations := name :: !violations in
  let fired_after_win =
    List.length
      (List.filter (fun f -> f.point = Fault_plan.After_win) fired)
  in
  (* Check order is reversed by the consing below. *)
  check "leak-accounting" (leaked <> fired_after_win);
  check "namespace-bound"
    (List.exists (fun n -> n >= plan.Fault_plan.name_bound) assigned);
  check "survivor-uniqueness"
    (List.length (List.sort_uniq compare assigned) <> names_assigned);
  let exists_pid pred =
    let found = ref false in
    for pid = 0 to procs - 1 do
      if pred pid then found := true
    done;
    !found
  in
  check "crashed-silent"
    (exists_pid (fun pid -> crashed.(pid) && result.names.(pid) <> None));
  check "survivor-progress"
    (exists_pid (fun pid -> (not crashed.(pid)) && result.names.(pid) = None));
  {
    plan;
    fired;
    crashed;
    survivors;
    names_assigned;
    max_name;
    slots_taken;
    leaked;
    violations = !violations;
  }

(* ------------------------------------------------------------------ *)
(* Running *)

let run ?(certify = false) ~plan ~algo () =
  let inj = injector_make plan in
  let chaos_hooks = injector_hooks inj in
  let hb =
    if certify then Some (Analysis.Hb.create ~mode:Analysis.Hb.Collect ())
    else None
  in
  let hooks =
    match hb with
    | None -> chaos_hooks
    | Some hb ->
      Shm.Domain_runner.compose_hooks chaos_hooks (Analysis.Hb_runner.hooks hb)
  in
  let wrapped env = try algo env with Crashed -> None in
  let result =
    Shm.Domain_runner.run ~domains:plan.Fault_plan.domains ~hooks
      ~seed:plan.Fault_plan.seed ~procs:plan.Fault_plan.procs
      ~capacity:plan.Fault_plan.capacity ~algo:wrapped ()
  in
  {
    verdict = judge plan inj result;
    result;
    races = Option.map Analysis.Hb.races hb;
  }

let run_plan ?certify plan =
  match Algos.find plan.Fault_plan.algo with
  | Error e -> Error e
  | Ok build ->
    let algo, capacity = build ~n:plan.Fault_plan.procs ~t0:3 in
    if capacity <> plan.Fault_plan.capacity then
      Error
        (Printf.sprintf
           "plan records capacity %d but algorithm %S at procs=%d needs %d \
            (corrupted or hand-edited plan?)"
           plan.Fault_plan.capacity plan.Fault_plan.algo plan.Fault_plan.procs
           capacity)
    else Ok (run ?certify ~plan ~algo ())

(* ------------------------------------------------------------------ *)
(* Verdict artifact *)

let version = 1

let verdict_to_json v =
  let open Jsonu in
  let p = v.plan in
  let fired_json f =
    Obj
      [
        ("pid", Int f.pid);
        ("op", Int f.op);
        ("point", Str (Fault_plan.point_to_string f.point));
      ]
  in
  to_string
    (Obj
       [
         ("kind", Str "chaos-verdict");
         ("version", Int version);
         ("seed", Int p.Fault_plan.seed);
         ("procs", Int p.Fault_plan.procs);
         ("domains", Int p.Fault_plan.domains);
         ("algo", Str p.Fault_plan.algo);
         ("capacity", Int p.Fault_plan.capacity);
         ("name_bound", Int p.Fault_plan.name_bound);
         ("crash_frac", Num p.Fault_plan.crash_frac);
         ("pause_frac", Num p.Fault_plan.pause_frac);
         ("fired", Arr (List.map fired_json v.fired));
         ("survivors", Int v.survivors);
         ("names_assigned", Int v.names_assigned);
         ("max_name", Int v.max_name);
         ("slots_taken", Int v.slots_taken);
         ("leaked", Int v.leaked);
         ("ok", Bool (v.violations = []));
         ("violations", Arr (List.map (fun s -> Str s) v.violations));
       ])

(* doctor's view of a recorded verdict: its seed, outcome and
   violations. *)
let summary_of_json s =
  let open Jsonu in
  match parse s with
  | None -> Error "not valid JSON (or outside the repository's JSON subset)"
  | Some json -> (
    try
      let fields = obj json in
      let string = function Str s -> s | _ -> raise Malformed in
      if str fields "kind" <> "chaos-verdict" then
        Error "field \"kind\" is not \"chaos-verdict\""
      else
        Ok
          ( int_ fields "seed",
            bool_ fields "ok",
            List.map string (arr fields "violations") )
    with Malformed -> Error "missing or mistyped verdict field")

(* ------------------------------------------------------------------ *)
(* Reporting *)

let clean o =
  ok o.verdict && match o.races with Some (_ :: _) -> false | _ -> true

let render ~json o =
  let v = o.verdict and p = o.verdict.plan in
  let races =
    match o.races with
    | None -> []
    | Some [] -> [ "happens-before: certified race-free" ]
    | Some rs ->
      List.map Analysis.Hb.race_to_string rs
      @ [ Printf.sprintf "happens-before: %d race(s)" (List.length rs) ]
  in
  let invariants =
    if v.violations = [] then "invariants: ok"
    else "invariants VIOLATED: " ^ String.concat ", " v.violations
  in
  if json then verdict_to_json v
  else
    String.concat "\n"
      (Printf.sprintf
         "seed=%d algo=%s procs=%d domains=%d crash_frac=%g: armed=%d \
          fired=%d survivors=%d names=%d max_name=%d leaked=%d"
         p.seed p.algo p.procs p.domains p.crash_frac (List.length p.crashes)
         (List.length v.fired) v.survivors v.names_assigned v.max_name v.leaked
       :: (races @ [ invariants ]))

let render_soak ~json ~runs failures =
  let seeds = List.map fst failures in
  let violations =
    List.sort_uniq compare
      (List.concat_map (fun (_, o) -> o.verdict.violations) failures)
  in
  let list f xs = String.concat ", " (List.map f xs) in
  if json then
    Jsonu.(
      to_string
        (Obj
           [
             ("kind", Str "chaos-soak");
             ("runs", Int runs);
             ("failing", Int (List.length failures));
             ("failing_seeds", Arr (List.map (fun s -> Int s) seeds));
             ("ok", Bool (failures = []));
             ("violations", Arr (List.map (fun v -> Str v) violations));
           ]))
  else
    Printf.sprintf "chaos soak: %d run(s), %d violating (seeds: %s)%s" runs
      (List.length failures)
      (if seeds = [] then "none" else list string_of_int seeds)
      (if violations = [] then "" else "; violations: " ^ list Fun.id violations)

(* ------------------------------------------------------------------ *)
(* Recorded runs in a directory *)

let verdict_prefix = "chaos_verdict_"
let verdict_file ~seed = Printf.sprintf "%s%d.json" verdict_prefix seed

let record ~dir o =
  let seed = o.verdict.plan.seed in
  let path name = Filename.concat dir name in
  Fault_plan.save ~file:(path (Fault_plan.file ~seed)) o.verdict.plan;
  Out_channel.with_open_bin (path (verdict_file ~seed)) (fun oc ->
      output_string oc (verdict_to_json o.verdict ^ "\n"))

let audit_dir dir =
  let files owns =
    Sys.readdir dir |> Array.to_list |> List.filter owns |> List.sort compare
  in
  let plans =
    List.map
      (fun f -> (f, Fault_plan.load ~file:(Filename.concat dir f)))
      (files Fault_plan.is_file)
  in
  let plan_lines (f, loaded) =
    match loaded with
    | Error e -> [ `Problem (Printf.sprintf "%s: unreadable chaos plan: %s" f e) ]
    | Ok ((p : Fault_plan.t), form) ->
      `Info
        (Printf.sprintf "%s: plan seed=%d algo=%s procs=%d domains=%d crash_frac=%g"
           f p.seed p.algo p.procs p.domains p.crash_frac)
      ::
      (if form = `Canonical then []
       else
         [
           `Problem
             (f ^ ": not in canonical form — replay would re-record different \
                   bytes (hand-edited?)");
         ])
  in
  let seeds =
    List.filter_map
      (function _, Ok ((p : Fault_plan.t), _) -> Some p.seed | _ -> None)
      plans
  in
  let verdict_lines f =
    let pf fmt = Printf.sprintf ("%s: " ^^ fmt) f in
    let text = In_channel.(with_open_bin (Filename.concat dir f) input_all) in
    match summary_of_json (String.trim text) with
    | Error e -> [ `Problem (pf "unreadable chaos verdict: %s" e) ]
    | Ok (seed, ok, violations) ->
      let orphan =
        `Note
          (pf "verdict for seed %d has no matching %s (not replayable)" seed
             (Fault_plan.file ~seed))
      and violated =
        `Problem
          (pf "recorded invariant violation(s): %s" (String.concat ", " violations))
      in
      (`Info (pf "verdict seed=%d %s" seed (if ok then "ok" else "VIOLATED"))
      :: (if List.mem seed seeds then [] else [ orphan ]))
      @ if ok then [] else [ violated ]
  in
  let is_verdict f =
    String.starts_with ~prefix:verdict_prefix f && Filename.check_suffix f ".json"
  in
  List.concat_map plan_lines plans @ List.concat_map verdict_lines (files is_verdict)
