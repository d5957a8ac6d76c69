(** Experiment descriptors.

    Each table/figure of DESIGN.md §4 is one value of type {!t}; the
    registry ({!Registry.all}) collects them, and both the CLI
    ([bin/repro_cli]) and the bench harness ([bench/main]) drive
    experiments exclusively through this interface.

    An experiment has one measurement body.  A {!Serial} body executes
    its whole sweep and prints tables.  A {!Trials} body is the sweep
    decomposed into independent single-trial {!job}s plus a [tables]
    function that renders their results: {!run} executes the jobs one
    after another and passes the results to [tables], while the parallel
    engine ([lib/engine]) fans the same jobs out across domains and
    records them in a JSONL store.  Both paths therefore measure with
    the same code. *)

type ctx = {
  seed : int;  (** base seed; trial [i] uses [seed + i] *)
  trials : int;  (** repetitions per measured point *)
  scale : float;
      (** multiplier on the experiment's default problem sizes; [1.0] for
          the published defaults, smaller for quick runs *)
  emit_table : title:string -> Table.t -> unit;
      (** sink for finished tables (prints, and optionally saves CSV) *)
  log : string -> unit;  (** free-form progress / fit lines *)
}

type job = {
  sweep_point : int;
      (** index of the parameter point within the experiment's sweep *)
  point_label : string;  (** human-readable point, e.g. ["n=1024"] *)
  trial : int;  (** trial index at this point, [0 .. trials-1] *)
  params : (string * float) list;
      (** the point's parameters, recorded verbatim in the result store *)
  run_job : seed:int -> (string * float) list;
      (** execute one trial with the given seed and return named
          measured values.  Implementations must be self-contained —
          allocate algorithm instances inside the closure and touch no
          shared mutable state — so a job can run on any domain, in any
          order, and [--jobs 1] and [--jobs 8] agree bit for bit. *)
}

type result = job * (string * float) list
(** A job with the values its [run_job] returned. *)

type body =
  | Serial of (ctx -> unit)
      (** runs the whole sweep and emits its tables; the engine runs
          these experiments serially too *)
  | Trials of {
      jobs : ctx -> job list;
          (** the sweep as single-trial jobs; reads only
              [ctx.seed]/[ctx.trials]/[ctx.scale] *)
      tables : ctx -> result list -> unit;
          (** renders the tables from every job's result, given in
              [jobs] order *)
    }

type t = {
  id : string;  (** short id used on the CLI, e.g. "t1" *)
  title : string;
  claim : string;  (** the paper claim being checked, with its reference *)
  body : body;
}

val run : t -> ctx -> unit
(** Execute the experiment serially and emit its tables.  A {!Trials}
    body runs each job once, in list order, with seed
    [ctx.seed + job.trial], then calls [tables]; an exception from a job
    propagates.  (The engine instead derives per-job seeds from
    [Engine.Seed_tree].) *)

val sweep :
  ?trials:('a -> int) ->
  ?sweep_point:(int -> 'a -> int) ->
  ctx ->
  'a list ->
  label:('a -> string) ->
  params:('a -> (string * float) list) ->
  ('a -> seed:int -> (string * float) list) ->
  job list
(** [sweep ctx points ~label ~params measure] is the point-major job
    list of a sweep: for the [i]-th point [p], trials [0 .. trials p - 1]
    (default [ctx.trials]) at sweep point [sweep_point i p] (default
    [i]), each running [measure p]. *)

val values : result list -> point:int -> string -> float array
(** [values results ~point key]: the [key] value of every result at
    sweep point [point], in result order.
    @raise Not_found if such a result lacks [key]. *)

val mean : result list -> point:int -> string -> float
(** The mean of {!values}, accumulated in result order by
    [Stats.Summary.of_array] (a running mean, not a plain sum). *)

val default_ctx : ?seed:int -> ?trials:int -> ?scale:float -> unit -> ctx
(** A context that prints tables and log lines to stdout.  Defaults:
    [seed = 1], [trials = 5], [scale = 1.0]. *)
