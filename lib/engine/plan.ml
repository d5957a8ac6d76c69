open Harness

type outcome = {
  experiment : string;
  total_jobs : int;
  skipped : int;
  executed : int;
  quarantined : int;
  failed_keys : string list;
  malformed : int;
  interrupted : bool;
  wall_s : float;
  store : string;
  failures_store : string;
}

(* Wall-clock reads in this module are measurement payloads — a record's
   wall_ns and the manifest's written_at stamp, both documented as
   nondeterministic — never control flow or record identity.
   repro-lint: allow wall-clock *)
let wall_now () = Unix.gettimeofday ()

let job_key ~experiment (job : Experiment.job) =
  Printf.sprintf "%s/%d/%d" experiment job.Experiment.sweep_point
    job.Experiment.trial

let plan ~ctx (exp : Experiment.t) =
  match exp.Experiment.body with
  | Experiment.Serial _ -> None
  | Experiment.Trials { jobs; _ } -> Some (jobs ctx)

let execute ?workers ?(resume = false) ?(progress = true)
    ?(should_stop = fun () -> false)
    ?(log = fun msg -> Printf.eprintf "%s\n%!" msg) ~out_dir
    ~(ctx : Experiment.ctx) (exp : Experiment.t) =
  match plan ~ctx exp with
  | None -> None
  | Some jobs ->
    let workers =
      match workers with Some w -> max 1 w | None -> Pool.default_workers ()
    in
    let id = exp.Experiment.id in
    let store = Sink.store_path ~dir:out_dir ~experiment:id in
    let failures_store = Fault.store_path ~dir:out_dir ~experiment:id in
    let total_jobs = List.length jobs in
    let started = wall_now () in
    let scan =
      if resume then Checkpoint.scan_store store else Checkpoint.empty_scan ()
    in
    if scan.Checkpoint.malformed_mid > 0 then
      log
        (Printf.sprintf
           "[%s] warning: %d malformed mid-file line(s) in %s — corrupt \
            records re-run; audit with `repro_cli doctor'"
           id scan.Checkpoint.malformed_mid store);
    (* Every job without a record runs, previously quarantined ones
       included: a job is a pure function of its seed, so it re-runs on
       the seed it failed with. *)
    let todo, skipped =
      if resume then
        Checkpoint.pending ~completed:scan.Checkpoint.keys
          ~key:(job_key ~experiment:id) jobs
      else (jobs, 0)
    in
    let tasks = Array.of_list todo in
    (* One job, once: its record on success, its failure line if it
       raises. *)
    let run_one (job : Experiment.job) =
      let key = job_key ~experiment:id job in
      let seed =
        Seed_tree.derive ~root:ctx.Experiment.seed ~experiment:id
          ~sweep_point:job.Experiment.sweep_point ~trial:job.Experiment.trial
      in
      let t0 = wall_now () in
      let result =
        match job.Experiment.run_job ~seed with
        | values -> Ok values
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      let wall_ns = (wall_now () -. t0) *. 1e9 in
      match result with
      | Ok values ->
        Ok
          {
            Sink.key;
            experiment = id;
            sweep_point = job.Experiment.sweep_point;
            point_label = job.Experiment.point_label;
            trial = job.Experiment.trial;
            seed;
            params = job.Experiment.params;
            values;
            wall_ns;
          }
      | Error (e, bt) ->
        Error
          {
            Fault.key;
            experiment = id;
            sweep_point = job.Experiment.sweep_point;
            trial = job.Experiment.trial;
            seed;
            error = Printexc.to_string e;
            backtrace = Printexc.raw_backtrace_to_string bt;
            wall_ns;
          }
    in
    let meter =
      if progress then
        Some (Progress.create ~label:id ~total:(Array.length tasks) ())
      else None
    in
    let quarantined_keys = ref [] in
    let executed = ref 0 in
    let sink = Sink.create ~dir:out_dir ~experiment:id ~append:resume in
    let fsink = Fault.create ~dir:out_dir ~experiment:id in
    let consume _ result =
      incr executed;
      match result with
      | Ok record ->
        Sink.write sink record;
        Option.iter Progress.tick meter
      | Error failure ->
        Fault.write fsink failure;
        quarantined_keys := failure.Fault.key :: !quarantined_keys;
        Option.iter Progress.fail meter
    in
    let outcome =
      Fun.protect
        ~finally:(fun () ->
          (* Failure path included: both stores closed before any
             exception propagates. *)
          Fault.close fsink;
          Sink.close sink)
        (fun () ->
          Pool.run_guarded ~workers ~should_stop ~f:run_one ~consume tasks)
    in
    Option.iter Progress.finish meter;
    Some
      {
        experiment = id;
        total_jobs;
        skipped;
        executed = !executed;
        quarantined = List.length !quarantined_keys;
        failed_keys = List.rev !quarantined_keys;
        malformed = scan.Checkpoint.malformed_mid;
        interrupted = outcome = Pool.Interrupted;
        wall_s = wall_now () -. started;
        store;
        failures_store;
      }

(* ------------------------------------------------------------------ *)
(* Manifest *)

let git_describe =
  lazy
    (try
       let ic =
         Unix.open_process_in "git describe --always --dirty 2>/dev/null"
       in
       let line = try input_line ic with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

let write_manifest ~out_dir ~ids ~workers ~resume ~status
    ~(ctx : Experiment.ctx) =
  Sink.write_manifest ~dir:out_dir
    [
      ("schema", Sink.schema_version);
      ("git", Lazy.force git_describe);
      ("experiments", String.concat " " ids);
      ("seed", string_of_int ctx.Experiment.seed);
      ("trials", string_of_int ctx.Experiment.trials);
      ("scale", Printf.sprintf "%g" ctx.Experiment.scale);
      ("workers", string_of_int workers);
      ("resume", string_of_bool resume);
      ("status", status);
      ("written_at", Printf.sprintf "%.0f" (wall_now ()));
    ]

(* ------------------------------------------------------------------ *)
(* Batch driver: the one loop of [execute] over a list of experiments *)

type batch = {
  outcomes : outcome list;
  failed : (string * string) list;
  serial : Experiment.t list;
  interrupted : bool;
}

let run_batch ?workers ?(resume = false) ?(scale_free = false) ?progress
    ?(should_stop = fun () -> false) ?log ~out_dir
    (plans : (Experiment.t * Experiment.ctx) list) =
  let ctx0 =
    match plans with
    | (_, ctx) :: _ -> ctx
    | [] -> invalid_arg "Plan.run_batch: no experiments"
  in
  let ids = List.map (fun (e, _) -> e.Experiment.id) plans in
  let workers =
    match workers with Some w -> max 1 w | None -> Pool.default_workers ()
  in
  let checked =
    match if resume then Sink.read_manifest ~dir:out_dir else None with
    | Some manifest ->
      (* The manifest records the first plan's scale only, and no
         scale bounds the jobs of a scale-free batch. *)
      let manifest =
        if scale_free then List.remove_assoc "scale" manifest else manifest
      in
      Checkpoint.validate_manifest ~manifest ~ids ~seed:ctx0.Experiment.seed
        ~trials:ctx0.Experiment.trials ~scale:ctx0.Experiment.scale
    | None -> Ok ()
  in
  Result.map
    (fun () ->
      let manifest status =
        write_manifest ~out_dir ~ids ~workers ~resume ~status ~ctx:ctx0
      in
      manifest "running";
      let rec go outcomes failed serial = function
        | (exp, ctx) :: rest when not (should_stop ()) -> (
          match
            execute ~workers ~resume ?progress ~should_stop ?log ~out_dir
              ~ctx exp
          with
          | Some o when o.interrupted -> (o :: outcomes, failed, serial, true)
          | Some o -> go (o :: outcomes) failed serial rest
          | None -> go outcomes failed (exp :: serial) rest
          | exception Failure msg ->
            go outcomes ((exp.Experiment.id, msg) :: failed) serial rest)
        | rest -> (outcomes, failed, serial, rest <> [])
      in
      let outcomes, failed, serial, interrupted = go [] [] [] plans in
      manifest
        (if interrupted then "interrupted"
         else if failed <> [] then "failed"
         else if List.exists (fun o -> o.quarantined > 0) outcomes then
           "quarantined"
         else "completed");
      {
        outcomes = List.rev outcomes;
        failed = List.rev failed;
        serial = List.rev serial;
        interrupted;
      })
    checked
