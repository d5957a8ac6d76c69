(* Systematic (stateless-model-checking) exploration of small
   configurations.

   The engine enumerates every schedule of a finite "world" — an
   abstract transition system offering a set of enabled actions per
   state — by depth-first search with snapshot/restore, pruned with
   Godefroid-style sleep sets.  A sleeping action is one that was
   already explored from this state and commutes with everything tried
   since, so re-exploring it can only produce a Mazurkiewicz-equivalent
   interleaving; skipping it is sound for the state-reachability
   properties we check (every reachable state is still reached by some
   explored linearization of its trace).  We deliberately do NOT cache
   visited states: sleep sets plus state caching is unsound unless the
   sleep set participates in the cache key, and the state spaces at
   n <= 4 are small enough that pure DFS finishes in seconds.

   Independence reuses the same footprint reasoning as the vector-clock
   race checker ([Hb]): two actions of different processes commute
   unless they touch the same TAS location or one of them is declared
   global.  The footprint encoding on actions:

     -2  purely process-local (commutes with every other process's action)
     -1  global (conflicts with everything)
     l>=0  touches TAS location l (conflicts with the same location)

   Violations are raised as soon as a transition (or a terminal state)
   breaks an invariant; the offending schedule is minimized by greedy
   deletion plus context-switch reduction and can be emitted as a
   canonical, byte-replayable JSON fixture. *)

type action = { pid : int; tag : int; label : string; footprint : int }

type world = {
  w_label : string;
  nprocs : int;
  enabled : unit -> action list;
      (* enabled actions, in a deterministic order *)
  apply : action -> string option;
      (* perform the action; [Some msg] = invariant violated *)
  at_end : unit -> string option;  (* terminal-state check *)
  save : unit -> unit -> unit;  (* snapshot; returns the restore thunk *)
  reset : unit -> unit;  (* back to the initial state *)
}

type stats = {
  schedules : int;  (* maximal schedules fully explored *)
  transitions : int;
  max_depth : int;
  sleep_pruned : int;  (* branches cut by sleep sets *)
  complete : bool;  (* false iff a budget stopped the search *)
}

type violation = { schedule : action list; message : string }
type outcome = { stats : stats; violation : violation option }

let independent a b =
  a.pid <> b.pid
  && (a.footprint = -2 || b.footprint = -2
     || (a.footprint >= 0 && b.footprint >= 0 && a.footprint <> b.footprint))

exception Found of action list * string
exception Budget_hit

let explore ?(sleep_sets = true) ?(max_transitions = 50_000_000)
    ?(max_schedules = max_int) (w : world) =
  let transitions = ref 0 in
  let schedules = ref 0 in
  let max_depth = ref 0 in
  let pruned = ref 0 in
  let complete = ref true in
  let sched = ref [] in
  let rec go depth sleep =
    if depth > !max_depth then max_depth := depth;
    match w.enabled () with
    | [] ->
      incr schedules;
      (match w.at_end () with
      | Some msg -> raise (Found (List.rev !sched, msg))
      | None -> if !schedules >= max_schedules then raise Budget_hit)
    | acts ->
      let avail =
        if not sleep_sets then acts
        else
          List.filter
            (fun a ->
              let asleep =
                List.exists (fun b -> b.pid = a.pid && b.tag = a.tag) sleep
              in
              if asleep then incr pruned;
              not asleep)
            acts
      in
      let explored = ref [] in
      List.iter
        (fun a ->
          incr transitions;
          if !transitions > max_transitions then raise Budget_hit;
          let restore = w.save () in
          sched := a :: !sched;
          (match w.apply a with
          | Some msg -> raise (Found (List.rev !sched, msg))
          | None ->
            let sleep' =
              if sleep_sets then
                List.filter (fun b -> independent b a) (sleep @ !explored)
              else []
            in
            go (depth + 1) sleep');
          sched := List.tl !sched;
          restore ();
          explored := a :: !explored)
        avail
  in
  w.reset ();
  let violation =
    match go 0 [] with
    | () -> None
    | exception Found (s, m) -> Some { schedule = s; message = m }
    | exception Budget_hit ->
      complete := false;
      None
  in
  {
    stats =
      {
        schedules = !schedules;
        transitions = !transitions;
        max_depth = !max_depth;
        sleep_pruned = !pruned;
        complete = !complete;
      };
    violation;
  }

(* ------------------------------------------------------------------ *)
(* Replay *)

let find_enabled w ~pid ~tag =
  List.find_opt (fun a -> a.pid = pid && a.tag = tag) (w.enabled ())

(* Strict replay: every schedule entry must be enabled in sequence.
   [Ok (Some v)] — a violation fired (mid-schedule or, for a maximal
   schedule, at the terminal check); [Ok None] — ran clean. *)
let replay (w : world) (keys : (int * int) list) =
  w.reset ();
  let rec run applied = function
    | [] ->
      if w.enabled () = [] then
        match w.at_end () with
        | Some msg -> Ok (Some { schedule = List.rev applied; message = msg })
        | None -> Ok None
      else Ok None
    | (pid, tag) :: rest -> (
      match find_enabled w ~pid ~tag with
      | None ->
        Error
          (Printf.sprintf
             "schedule not replayable: action (pid %d, tag %d) not enabled \
              at step %d"
             pid tag
             (List.length applied))
      | Some a -> (
        match w.apply a with
        | Some msg -> Ok (Some { schedule = List.rev (a :: applied); message = msg })
        | None -> run (a :: applied) rest))
  in
  run [] keys

(* Lenient replay for shrinking: skip entries that are not enabled. *)
let replay_lenient (w : world) (keys : (int * int) list) =
  w.reset ();
  let rec run applied = function
    | [] ->
      if w.enabled () = [] then
        match w.at_end () with
        | Some msg -> Some { schedule = List.rev applied; message = msg }
        | None -> None
      else None
    | (pid, tag) :: rest -> (
      match find_enabled w ~pid ~tag with
      | None -> run applied rest
      | Some a -> (
        match w.apply a with
        | Some msg -> Some { schedule = List.rev (a :: applied); message = msg }
        | None -> run (a :: applied) rest))
  in
  run [] keys

(* ------------------------------------------------------------------ *)
(* Schedule minimization: greedy drop-one-entry passes (restarting on
   every success), then adjacent-swap context-switch reduction, then one
   lenient replay to produce the canonical applied-action schedule.  Any
   violation — not necessarily the original message — keeps a candidate:
   a shrunk schedule exposing a different invariant breach is still a
   counterexample, and the final message is taken from the final replay. *)

let minimize (w : world) (v : violation) =
  let keys_of s = List.map (fun a -> (a.pid, a.tag)) s in
  let reproduces keys = replay_lenient w keys <> None in
  let rec drop_pass keys i =
    if i >= List.length keys then keys
    else
      let cand = List.filteri (fun j _ -> j <> i) keys in
      if reproduces cand then drop_pass cand 0 else drop_pass keys (i + 1)
  in
  let switches keys =
    let rec go last acc = function
      | [] -> acc
      | (pid, _) :: rest ->
        go pid (if pid = last then acc else acc + 1) rest
    in
    go (-1) (-1) keys |> max 0
  in
  let rec swap_pass keys budget =
    if budget <= 0 then keys
    else
      let rec try_swaps prefix = function
        | (a :: b :: rest : (int * int) list) when fst a <> fst b ->
          let cand = List.rev_append prefix (b :: a :: rest) in
          if switches cand < switches keys && reproduces cand then Some cand
          else try_swaps (a :: prefix) (b :: rest)
        | a :: rest -> try_swaps (a :: prefix) rest
        | [] -> None
      in
      match try_swaps [] keys with
      | Some keys' -> swap_pass keys' (budget - 1)
      | None -> keys
  in
  let keys0 = keys_of v.schedule in
  if not (reproduces keys0) then v (* defensive: keep the original *)
  else begin
    let keys = drop_pass keys0 0 in
    let keys = swap_pass keys (List.length keys * List.length keys) in
    match replay_lenient w keys with
    | Some v' -> v'
    | None -> v
  end

(* ------------------------------------------------------------------ *)
(* Counterexample fixtures: canonical JSON, byte-replayable. *)

let fixture_kind = "modelcheck-cex"
let fixture_schema = "modelcheck-cex/1"

type fixture = {
  fx_model : string;
  fx_mutation : string option;  (* seeded bug that produced this cex *)
  fx_violation : string;
  fx_params : (string * Jsonu.t) list;
  fx_schedule : (int * int * string) list;  (* pid, tag, label *)
}

let fixture_to_json fx =
  Jsonu.Obj
    [
      ("kind", Jsonu.Str fixture_kind);
      ("schema", Jsonu.Str fixture_schema);
      ("model", Jsonu.Str fx.fx_model);
      ("mutation", Jsonu.Str (Option.value fx.fx_mutation ~default:""));
      ("violation", Jsonu.Str fx.fx_violation);
      ("params", Jsonu.Obj fx.fx_params);
      ( "schedule",
        Jsonu.Arr
          (List.map
             (fun (pid, tag, label) ->
               Jsonu.Obj
                 [
                   ("pid", Jsonu.Int pid);
                   ("tag", Jsonu.Int tag);
                   ("label", Jsonu.Str label);
                 ])
             fx.fx_schedule) );
    ]

let fixture_to_string fx = Jsonu.to_string (fixture_to_json fx)

let fixture_of_json j =
  try
    let o = Jsonu.obj j in
    if Jsonu.str o "kind" <> fixture_kind then Error "kind is not modelcheck-cex"
    else if Jsonu.str o "schema" <> fixture_schema then
      Error
        (Printf.sprintf "unsupported schema %S (want %s)" (Jsonu.str o "schema")
           fixture_schema)
    else begin
      let mutation = match Jsonu.str o "mutation" with "" -> None | m -> Some m in
      let params =
        match List.assoc_opt "params" o with
        | Some (Jsonu.Obj kvs) -> kvs
        | _ -> raise Jsonu.Malformed
      in
      let schedule =
        Jsonu.arr o "schedule"
        |> List.map (fun step ->
               let s = Jsonu.obj step in
               (Jsonu.int_ s "pid", Jsonu.int_ s "tag", Jsonu.str s "label"))
      in
      Ok
        {
          fx_model = Jsonu.str o "model";
          fx_mutation = mutation;
          fx_violation = Jsonu.str o "violation";
          fx_params = params;
          fx_schedule = schedule;
        }
    end
  with Jsonu.Malformed -> Error "missing or mistyped fixture field"

let fixture_of_string source =
  match Jsonu.parse (String.trim source) with
  | None -> Error "not parseable JSON"
  | Some j -> fixture_of_json j

(* Schema + canonical-form audit (used by `repro_cli doctor`); the
   replayability half needs a world and lives with the model dispatch. *)
let audit_fixture source =
  match fixture_of_string source with
  | Error e -> Error e
  | Ok fx ->
    if fixture_to_string fx <> String.trim source then
      Error "not in canonical form (re-encode differs byte-wise)"
    else Ok fx

(* ------------------------------------------------------------------ *)
(* The renaming worlds: Renaming.Machine machines driven step-by-step through
   Fast_core, one-shot (rounds = 1) or long-lived (rounds > 1, with
   release actions and a Wing–Gong linearizability check on the
   acquire/release history at every terminal state). *)

type renaming_config = {
  algo : string;  (* "rebatching" *)
  procs : int;
  seed : int;
  t0 : int;
  crashes : int;  (* total crash-point budget across the run *)
  rounds : int;  (* acquires per process; > 1 = long-lived *)
  step_budget : int;  (* per-process op bound (livelock detector) *)
  mutation : string option;
}

let default_renaming =
  {
    algo = "rebatching";
    procs = 3;
    seed = 1;
    t0 = 3;
    crashes = 1;
    rounds = 1;
    step_budget = 64;
    mutation = None;
  }

let renaming_mutations = [ "claim-on-lose"; "probe-out-of-range"; "spin" ]

(* Seeded bugs, applied to pid 0's machine only so the counterexample
   stays small: claim-on-lose returns the probed name after a LOST TAS
   (uniqueness break); probe-out-of-range probes location m (namespace
   break); spin re-probes the same location forever (lock-freedom
   break). *)
let mutate_machine name ~bound (inner : Renaming.Machine.t) =
  let open Renaming.Machine in
  match name with
  | "claim-on-lose" ->
    {
      inner with
      label = inner.label ^ "+claim-on-lose";
      resume =
        (fun st off io pid loc won ->
          if pid = 0 && not won then finished loc
          else inner.resume st off io pid loc won);
    }
  | "probe-out-of-range" ->
    {
      inner with
      label = inner.label ^ "+probe-out-of-range";
      init =
        (fun st off io pid ->
          if pid = 0 then bound else inner.init st off io pid);
      resume =
        (fun st off io pid loc won ->
          if pid = 0 then (if won then finished loc else finished_none)
          else inner.resume st off io pid loc won);
    }
  | "spin" ->
    {
      inner with
      label = inner.label ^ "+spin";
      resume =
        (fun st off io pid loc won ->
          if pid = 0 then loc else inner.resume st off io pid loc won);
    }
  | _ -> invalid_arg ("Explore.mutate_machine: unknown mutation " ^ name)

let tag_step = 0
let tag_crash = 1
let tag_crash_win = 2
let tag_release = 3

let renaming_world ?on_terminal (cfg : renaming_config) =
  if cfg.algo <> "rebatching" then
    Error (Printf.sprintf "unknown algo %S (only rebatching is explorable)" cfg.algo)
  else if cfg.procs < 1 || cfg.procs > 6 then
    Error "procs must be in 1..6 (the state space is exponential)"
  else if cfg.rounds < 1 then Error "rounds must be >= 1"
  else begin
    (match cfg.mutation with
    | Some m when not (List.mem m renaming_mutations) ->
      invalid_arg ("Explore.renaming_world: unknown mutation " ^ m)
    | _ -> ());
    let inst = Renaming.Rebatching.make ~t0:cfg.t0 ~n:cfg.procs () in
    let bound = Renaming.Rebatching.size inst in
    let algo =
      let base = Renaming.Rebatching.machine inst in
      match cfg.mutation with
      | None -> base
      | Some m -> mutate_machine m ~bound base
    in
    let core = Sim.Fast_core.create ~algo ~n:cfg.procs () in
    let crashes_used = ref 0 in
    let rounds_done = Array.make cfg.procs 0 in
    (* Linearizability history: completed + open ops, newest first.  The
       list is purely functional so a snapshot is just the list value. *)
    let history : Linz.op list ref = ref [] in
    let clock = ref 0 in
    let open_inv = Array.make cfg.procs (-1) in
    let tick () =
      let t = !clock in
      clock := t + 1;
      t
    in
    let begin_acquire pid =
      let t = tick () in
      history :=
        { Linz.pid; kind = Linz.Acquire; name = -1; inv = t; resp = max_int }
        :: !history;
      open_inv.(pid) <- t
    in
    let finish_acquire pid u =
      let t = tick () in
      history :=
        List.map
          (fun (o : Linz.op) ->
            if o.pid = pid && o.inv = open_inv.(pid) then
              { o with name = u; resp = t }
            else o)
          !history;
      open_inv.(pid) <- -1
    in
    let abort_acquire pid =
      (* a crashed process's op never responds; it can be dropped from
         the history without weakening the Linz verdict (see linz.mli) *)
      history :=
        List.filter
          (fun (o : Linz.op) -> not (o.pid = pid && o.inv = open_inv.(pid)))
          !history;
      open_inv.(pid) <- -1
    in
    let record_release pid u =
      let t = tick () in
      let t' = tick () in
      history :=
        { Linz.pid; kind = Linz.Release; name = u; inv = t; resp = t' }
        :: !history
    in
    let is_live pid =
      let rec go i =
        i < Sim.Fast_core.live_count core
        && (Sim.Fast_core.live_pid core i = pid || go (i + 1))
      in
      go 0
    in
    (* a machine may settle the moment it (re)starts; account for it *)
    let note_started pid =
      if is_live pid then begin
        begin_acquire pid;
        None
      end
      else
        match Sim.Fast_core.name_of core ~pid with
        | Some u ->
          begin_acquire pid;
          finish_acquire pid u;
          rounds_done.(pid) <- rounds_done.(pid) + 1;
          if u < 0 || u >= bound then
            Some
              (Printf.sprintf
                 "namespace bound exceeded: process %d got name %d outside \
                  [0, %d)"
                 pid u bound)
          else None
        | None ->
          Some (Printf.sprintf "process %d finished without a name" pid)
    in
    let check_finish pid =
      match Sim.Fast_core.name_of core ~pid with
      | Some u ->
        finish_acquire pid u;
        rounds_done.(pid) <- rounds_done.(pid) + 1;
        if u < 0 || u >= bound then
          Some
            (Printf.sprintf
               "namespace bound exceeded: process %d got name %d outside \
                [0, %d)"
               pid u bound)
        else begin
          let dup = ref None in
          for q = 0 to cfg.procs - 1 do
            if q <> pid && !dup = None then
              match Sim.Fast_core.name_of core ~pid:q with
              | Some v when v = u ->
                dup :=
                  Some
                    (Printf.sprintf
                       "uniqueness violated: processes %d and %d both hold \
                        name %d"
                       q pid u)
              | _ -> ()
          done;
          !dup
        end
      | None ->
        Some (Printf.sprintf "process %d finished without a name" pid)
    in
    let reset () =
      Sim.Fast_core.reset core ~seed:cfg.seed;
      Sim.Fast_core.start core;
      crashes_used := 0;
      Array.fill rounds_done 0 cfg.procs 0;
      history := [];
      clock := 0;
      Array.fill open_inv 0 cfg.procs (-1);
      for pid = 0 to cfg.procs - 1 do
        ignore (note_started pid)
      done
    in
    let save () =
      let s = Sim.Fast_core.snapshot core in
      let cu = !crashes_used in
      let rd = Array.copy rounds_done in
      let h = !history in
      let c = !clock in
      let oi = Array.copy open_inv in
      fun () ->
        Sim.Fast_core.restore core s;
        crashes_used := cu;
        Array.blit rd 0 rounds_done 0 cfg.procs;
        history := h;
        clock := c;
        Array.blit oi 0 open_inv 0 cfg.procs
    in
    let enabled () =
      let acts = ref [] in
      for pid = cfg.procs - 1 downto 0 do
        if is_live pid then begin
          let loc = Sim.Fast_core.pending_loc core ~pid in
          if
            !crashes_used < cfg.crashes
            && not (Sim.Location_space.is_taken (Sim.Fast_core.space core) loc)
          then
            acts :=
              { pid; tag = tag_crash_win; label = "crash-win"; footprint = loc }
              :: !acts;
          if !crashes_used < cfg.crashes then
            acts :=
              { pid; tag = tag_crash; label = "crash"; footprint = -2 } :: !acts;
          acts := { pid; tag = tag_step; label = "step"; footprint = loc } :: !acts
        end
        else if
          (not (Sim.Fast_core.is_crashed core ~pid))
          && Sim.Fast_core.name_of core ~pid <> None
          && rounds_done.(pid) < cfg.rounds
        then
          acts :=
            {
              pid;
              tag = tag_release;
              label = "release";
              footprint = Option.get (Sim.Fast_core.name_of core ~pid);
            }
            :: !acts
      done;
      !acts
    in
    let apply (a : action) =
      if a.tag = tag_step then begin
        Sim.Fast_core.step_pid core ~pid:a.pid;
        if is_live a.pid then
          if
            Sim.Fast_core.steps_of core ~pid:a.pid
            > cfg.step_budget * cfg.rounds
          then
            Some
              (Printf.sprintf
                 "lock-freedom violated: process %d ran %d ops without \
                  deciding (budget %d)"
                 a.pid
                 (Sim.Fast_core.steps_of core ~pid:a.pid)
                 (cfg.step_budget * cfg.rounds))
          else None
        else check_finish a.pid
      end
      else if a.tag = tag_crash then begin
        Sim.Fast_core.crash_pid core ~pid:a.pid;
        incr crashes_used;
        abort_acquire a.pid;
        None
      end
      else if a.tag = tag_crash_win then begin
        Sim.Fast_core.crash_pid_after_win core ~pid:a.pid;
        incr crashes_used;
        abort_acquire a.pid;
        None
      end
      else if a.tag = tag_release then begin
        match Sim.Fast_core.name_of core ~pid:a.pid with
        | None -> Some (Printf.sprintf "release by process %d without a name" a.pid)
        | Some u ->
          Sim.Location_space.release (Sim.Fast_core.space core) u;
          record_release a.pid u;
          Sim.Fast_core.restart_pid core ~pid:a.pid;
          note_started a.pid
      end
      else Some (Printf.sprintf "unknown action tag %d" a.tag)
    in
    let at_end () =
      (match on_terminal with
      | Some f ->
        f (Array.init cfg.procs (fun pid -> Sim.Fast_core.name_of core ~pid))
      | None -> ());
      if cfg.rounds > 1 then begin
        let ops =
          List.filter (fun (o : Linz.op) -> o.resp < max_int) !history
          |> List.sort (fun (a : Linz.op) b -> compare a.inv b.inv)
        in
        Linz.explain ~bound ops
      end
      else None
    in
    Ok
      {
        w_label =
          Printf.sprintf "%s n=%d seed=%d rounds=%d crashes<=%d%s" cfg.algo
            cfg.procs cfg.seed cfg.rounds cfg.crashes
            (match cfg.mutation with None -> "" | Some m -> " mut=" ^ m);
        nprocs = cfg.procs;
        enabled;
        apply;
        at_end;
        save;
        reset;
      }
  end

(* Fixture round-trip for the renaming models. *)

let renaming_model_name cfg = if cfg.rounds > 1 then "longlived" else "rebatching"

let renaming_fixture (cfg : renaming_config) (v : violation) =
  {
    fx_model = renaming_model_name cfg;
    fx_mutation = cfg.mutation;
    fx_violation = v.message;
    fx_params =
      [
        ("procs", Jsonu.Int cfg.procs);
        ("seed", Jsonu.Int cfg.seed);
        ("t0", Jsonu.Int cfg.t0);
        ("crashes", Jsonu.Int cfg.crashes);
        ("rounds", Jsonu.Int cfg.rounds);
        ("step_budget", Jsonu.Int cfg.step_budget);
      ];
    fx_schedule = List.map (fun a -> (a.pid, a.tag, a.label)) v.schedule;
  }

let renaming_config_of_fixture fx =
  if fx.fx_model <> "rebatching" && fx.fx_model <> "longlived" then
    Error (Printf.sprintf "fixture model %S is not a renaming model" fx.fx_model)
  else
    try
      let p = fx.fx_params in
      let cfg =
        {
          algo = "rebatching";
          procs = Jsonu.int_ p "procs";
          seed = Jsonu.int_ p "seed";
          t0 = Jsonu.int_ p "t0";
          crashes = Jsonu.int_ p "crashes";
          rounds = Jsonu.int_ p "rounds";
          step_budget = Jsonu.int_ p "step_budget";
          mutation = fx.fx_mutation;
        }
      in
      if fx.fx_model = "longlived" && cfg.rounds < 2 then
        Error "longlived fixture must have rounds >= 2"
      else Ok cfg
    with Jsonu.Malformed -> Error "missing or mistyped renaming fixture param"

let renaming_world_of_fixture fx =
  match renaming_config_of_fixture fx with
  | Error e -> Error e
  | Ok cfg -> renaming_world cfg
