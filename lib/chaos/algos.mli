(** The shared-memory algorithm table.

    Fault plans name their algorithm as an opaque string
    ({!Fault_plan.t.algo}); this table interprets the name, building a
    fresh (stateful) instance plus the {!Shm.Atomic_space} capacity it
    needs.  It is shared by the chaos CLI, the replay path and
    [repro_cli racecheck], so a recorded plan replays against exactly
    the construction that produced it. *)

val names : string list
(** The recognized names: ["rebatching"], ["adaptive"], ["fast"]. *)

val find :
  string ->
  (n:int -> t0:int -> (Renaming.Env.t -> int option) * int, string) result
(** Resolve a name once: [build ~n ~t0] is a fresh instance for [n]
    processes and the capacity covering every location it can touch
    ({!Renaming.Object_space.ladder_capacity} for the adaptive ones).
    [Error] names the unknown algorithm. *)
