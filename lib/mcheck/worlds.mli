(** Model registry for the systematic explorer.

    Adapts the models that live above the analysis layer (the
    {!Service.Lease_model} protocol model) into [Analysis.Explore]
    worlds, and dispatches counterexample fixtures to the world that can
    replay them — the glue `repro_cli modelcheck` and `doctor` share. *)

module Explore = Analysis.Explore
module Lease_model = Service.Lease_model

val models : string list
(** ["rebatching"; "longlived"; "lease"] *)

val mutations_of_model : string -> string list

val lease_world : Lease_model.config -> Explore.world
(** All lease actions are global (footprint [-1]): no two commute, so
    exploration is a full unpruned DFS — sound, and affordable under the
    model's finite budgets.
    @raise Invalid_argument on bad configs (see {!Lease_model.create}). *)

val lease_fixture : Lease_model.config -> Explore.violation -> Explore.fixture
val lease_config_of_fixture : Explore.fixture -> (Lease_model.config, string) result

val world_of_fixture : Explore.fixture -> (Explore.world, string) result
(** The model-name dispatch; [Error] marks an orphaned fixture (model or
    params no longer buildable). *)

val replay_fixture :
  string -> (Explore.fixture * Explore.violation option, string) result
(** Audit a counterexample artifact (schema + canonical bytes), build its
    world and strictly replay its recorded schedule.  [Ok (fx, Some v)]:
    the replay reaches violation [v] — the recorded one iff
    [v.message = fx.fx_violation]; [Ok (fx, None)]: the schedule now
    runs clean; [Error]: unreadable, orphaned (model or params no longer
    buildable) or not replayable. *)
