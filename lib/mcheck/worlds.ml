(* Model registry for the systematic explorer.

   [Analysis.Explore] cannot depend on [Service] (the service stack sits
   above the analysis layer in the library graph), so the lease-protocol
   world adapter and the model-name dispatch used by `repro_cli
   modelcheck` and `doctor` live here, one level up from both. *)

module Explore = Analysis.Explore
module Lease_model = Service.Lease_model

let models = [ "rebatching"; "longlived"; "lease" ]

(* ------------------------------------------------------------------ *)
(* The lease world.  Every action is declared global (footprint -1):
   ticks move shared time, sweeps and grants touch the shared table, and
   renew/release read the clock — so no two lease actions commute and
   the DFS is exhaustive with no sleep-set reduction.  The budgets in
   [Lease_model.config] keep that affordable. *)

let lease_world (cfg : Lease_model.config) : Explore.world =
  let m = Lease_model.create cfg in
  let to_explore (a : Lease_model.action) =
    { Explore.pid = a.pid; tag = a.tag; label = a.label; footprint = -1 }
  in
  {
    Explore.w_label =
      Printf.sprintf "lease clients=%d names=%d acquires=%d ticks=%d%s"
        cfg.clients cfg.names cfg.acquires cfg.ticks
        (match cfg.mutation with None -> "" | Some mu -> " mut=" ^ mu);
    nprocs = Lease_model.nprocs m;
    enabled = (fun () -> List.map to_explore (Lease_model.enabled m));
    apply =
      (fun (a : Explore.action) ->
        Lease_model.apply m
          { Lease_model.pid = a.pid; tag = a.tag; label = a.label });
    at_end = (fun () -> Lease_model.at_end m);
    save = (fun () -> Lease_model.save m);
    reset = (fun () -> Lease_model.reset m);
  }

let lease_fixture (cfg : Lease_model.config) (v : Explore.violation) =
  {
    Explore.fx_model = "lease";
    fx_mutation = cfg.mutation;
    fx_violation = v.message;
    fx_params =
      [
        ("clients", Jsonu.Int cfg.clients);
        ("names", Jsonu.Int cfg.names);
        ("acquires", Jsonu.Int cfg.acquires);
        ("ticks", Jsonu.Int cfg.ticks);
      ];
    fx_schedule = List.map (fun (a : Explore.action) -> (a.pid, a.tag, a.label)) v.schedule;
  }

let lease_config_of_fixture (fx : Explore.fixture) =
  if fx.Explore.fx_model <> "lease" then
    Error (Printf.sprintf "fixture model %S is not lease" fx.Explore.fx_model)
  else
    try
      let p = fx.Explore.fx_params in
      Ok
        {
          Lease_model.clients = Jsonu.int_ p "clients";
          names = Jsonu.int_ p "names";
          acquires = Jsonu.int_ p "acquires";
          ticks = Jsonu.int_ p "ticks";
          mutation = fx.Explore.fx_mutation;
        }
    with Jsonu.Malformed -> Error "missing or mistyped lease fixture param"

(* ------------------------------------------------------------------ *)
(* Fixture -> world dispatch (the replayability half of the audits) *)

let world_of_fixture (fx : Explore.fixture) =
  match fx.Explore.fx_model with
  | "rebatching" | "longlived" -> Explore.renaming_world_of_fixture fx
  | "lease" -> (
    match lease_config_of_fixture fx with
    | Error e -> Error e
    | Ok cfg -> (
      match lease_world cfg with
      | w -> Ok w
      | exception Invalid_argument e -> Error e))
  | m -> Error (Printf.sprintf "unknown model %S" m)

(* The one replay path for a recorded counterexample, behind both
   `modelcheck --replay` and `doctor`: schema + canonical bytes (via
   [Explore.audit_fixture]), model dispatch, strict byte-replay of the
   recorded schedule, and the verdict: only the recorded violation
   convicts. *)
let judge_fixture source =
  match Explore.audit_fixture source with
  | Error e -> Error (`Invalid e)
  | Ok fx -> (
    match world_of_fixture fx with
    | Error e -> Error (`Invalid ("orphaned fixture: " ^ e))
    | Ok w -> (
      match
        Explore.replay w
          (List.map (fun (pid, tag, _) -> (pid, tag)) fx.Explore.fx_schedule)
      with
      | Error e -> Error (`Invalid e)
      | Ok None -> Error `Clean
      | Ok (Some v) when v.Explore.message <> fx.Explore.fx_violation ->
        Error
          (`Invalid
            (Printf.sprintf
               "replay reproduces a different violation: %S (recorded %S)"
               v.Explore.message fx.Explore.fx_violation))
      | Ok (Some v) -> Ok (fx, v)))

(* ------------------------------------------------------------------ *)
(* Fixture files *)

let fixture_file (fx : Explore.fixture) =
  let sane = String.map (fun c -> if c = '-' then '_' else c) in
  Printf.sprintf "modelcheck_%s%s.cex.json" (sane fx.fx_model)
    (Option.fold ~none:"" ~some:(fun m -> "_" ^ sane m) fx.fx_mutation)

let audit_dir dir =
  let audit f =
    let pf fmt = Printf.sprintf ("%s: model-check counterexample: " ^^ fmt) f in
    let source = In_channel.(with_open_bin (Filename.concat dir f) input_all) in
    match judge_fixture source with
    | Error `Clean ->
      [ `Problem (pf "schedule replays clean (recorded violation gone)") ]
    | Error (`Invalid e) -> [ `Problem (pf "%s" e) ]
    | Ok (fx, _) ->
      `Info
        (Printf.sprintf "%s: cex model=%s mutation=%s, %d-step schedule replays"
           f fx.fx_model
           (Option.value fx.fx_mutation ~default:"none")
           (List.length fx.fx_schedule))
      ::
      (if fx.fx_mutation <> None then []
       else
         [
           `Problem
             (Printf.sprintf
                "%s: counterexample against the unmutated model — a real \
                 captured bug: %s"
                f fx.fx_violation);
         ])
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cex.json")
  |> List.sort compare |> List.concat_map audit
