(** The execution environment seen by a renaming algorithm.

    This record is the entire interface between the algorithms and the
    world, which is what lets one implementation of each algorithm run
    unchanged on the deterministic simulator ([Sim]), on real multicore
    atomics ([Shm]), and in unit tests with hand-built fakes.

    The cost model of the paper (§2) is: one step = one shared-memory
    operation.  Accordingly [tas] is the only effectful operation an
    algorithm may perform; everything else is local computation. *)

type t = {
  pid : int;
      (** The process identifier (initial name); only used for
          diagnostics, never for symmetry breaking — the algorithms are
          comparison-free and anonymous as in the paper. *)
  tas : int -> bool;
      (** [tas loc] performs test-and-set on global location [loc];
          [true] means the caller won (it changed the location from free
          to taken).  At most one caller ever wins a given location. *)
  reset : int -> unit;
      (** [reset loc] releases a taken location — used only by long-lived
          renaming ({!Long_lived}); the one-shot algorithms never call
          it.  Environments that do not support release raise
          [Invalid_argument]. *)
  random_int : int -> int;
      (** [random_int bound] is a process-local uniform draw on
          [0, bound).  Backed by a per-process SplitMix64 stream. *)
  emit : Events.t -> unit;  (** Instrumentation sink; may be [ignore]. *)
  observed : bool;
      (** Whether [emit] has a listener.  When [false] the algorithms
          build no event at all, so an unobserved run pays nothing for
          instrumentation. *)
}

val make :
  ?emit:(Events.t -> unit) ->
  ?reset:(int -> unit) ->
  pid:int ->
  tas:(int -> bool) ->
  random_int:(int -> int) ->
  unit ->
  t
(** [make ~pid ~tas ~random_int ()] builds an environment; [emit]
    defaults to dropping events (and [observed] is then [false]), and
    [reset] to raising [Invalid_argument]. *)
