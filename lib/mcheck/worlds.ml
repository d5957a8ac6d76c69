(* Model registry for the systematic explorer.

   [Analysis.Explore] cannot depend on [Service] (the service stack sits
   above the analysis layer in the library graph), so the lease-protocol
   world adapter and the model-name dispatch used by `repro_cli
   modelcheck` and `doctor` live here, one level up from both. *)

module Explore = Analysis.Explore
module Lease_model = Service.Lease_model

let models = [ "rebatching"; "longlived"; "lease" ]

let mutations_of_model = function
  | "rebatching" | "longlived" -> Explore.renaming_mutations
  | "lease" -> Lease_model.mutations
  | _ -> []

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
   [Explore.audit_fixture]), model dispatch, then strict byte-replay of
   the recorded schedule.  Callers judge the verdict. *)
let replay_fixture source =
  match Explore.audit_fixture source with
  | Error e -> Error e
  | Ok fx -> (
    match world_of_fixture fx with
    | Error e -> Error ("orphaned fixture: " ^ e)
    | Ok w ->
      Explore.replay w
        (List.map (fun (pid, tag, _) -> (pid, tag)) fx.Explore.fx_schedule)
      |> Result.map (fun v -> (fx, v)))
