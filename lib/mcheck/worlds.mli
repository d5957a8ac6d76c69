(** Model registry for the systematic explorer.

    Adapts the models that live above the analysis layer (the
    {!Service.Lease_model} protocol model) into [Analysis.Explore]
    worlds, and dispatches counterexample fixtures to the world that can
    replay them — the glue `repro_cli modelcheck` and `doctor` share,
    including the one verdict on a recorded counterexample and the
    audit of the [*.cex.json] files in a directory. *)

module Explore = Analysis.Explore
module Lease_model = Service.Lease_model

val models : string list
(** ["rebatching"; "longlived"; "lease"] *)

val lease_world : Lease_model.config -> Explore.world
(** All lease actions are global (footprint [-1]): no two commute, so
    exploration is a full unpruned DFS — sound, and affordable under the
    model's finite budgets.
    @raise Invalid_argument on bad configs (see {!Lease_model.create}). *)

val lease_fixture : Lease_model.config -> Explore.violation -> Explore.fixture

val world_of_fixture : Explore.fixture -> (Explore.world, string) result
(** The model-name dispatch; [Error] marks an orphaned fixture (model or
    params no longer buildable). *)

val judge_fixture :
  string ->
  (Explore.fixture * Explore.violation, [ `Clean | `Invalid of string ]) result
(** Check a counterexample's schema and canonical bytes, strictly replay
    its schedule, and judge: [Ok] when it reaches the recorded violation;
    [`Clean] when it runs clean; [`Invalid] when unreadable, orphaned, not
    replayable, or reaching a different violation. *)

val fixture_file : Explore.fixture -> string
(** [modelcheck_<model>[_<mutation>].cex.json], dashes as underscores. *)

val audit_dir :
  string -> [ `Info of string | `Note of string | `Problem of string ] list
(** [doctor]'s lines for every [*.cex.json] in a directory, in name
    order: a convicting fixture is info, anything else a problem, and so
    is a convicting fixture with no mutation (a captured real bug). *)
