open Harness

type outcome = {
  experiment : string;
  total_jobs : int;
  skipped : int;
  executed : int;
  quarantined : int;
  failed_keys : string list;
  failures : int;
  malformed : int;
  interrupted : bool;
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

let execute ?workers ?(resume = false) ?(progress = true) ?(retries = 0)
    ?job_timeout ?(should_stop = fun () -> false) ?(grace = 2.0)
    ?(log = fun msg -> Printf.eprintf "%s\n%!" msg) ~out_dir
    ~(ctx : Experiment.ctx) (exp : Experiment.t) =
  match plan ~ctx exp with
  | None -> None
  | Some jobs ->
    let workers =
      match workers with Some w -> max 1 w | None -> Pool.default_workers ()
    in
    let retries = max 0 retries in
    let budget = retries + 1 in
    let id = exp.Experiment.id in
    let store = Sink.store_path ~dir:out_dir ~experiment:id in
    let failures_store = Fault.store_path ~dir:out_dir ~experiment:id in
    let total_jobs = List.length jobs in
    let scan =
      if resume then Checkpoint.scan_store store else Checkpoint.empty_scan ()
    in
    if scan.Checkpoint.malformed_mid > 0 then
      log
        (Printf.sprintf
           "[%s] warning: %d malformed mid-file line(s) in %s — corrupt \
            records re-run; audit with `repro_cli doctor'"
           id scan.Checkpoint.malformed_mid store);
    let prior =
      if resume then Fault.attempt_counts failures_store else Hashtbl.create 1
    in
    let prior_attempts key =
      Option.value ~default:0 (Hashtbl.find_opt prior key)
    in
    let todo, skipped =
      if resume then
        Checkpoint.pending ~completed:scan.Checkpoint.keys
          ~key:(job_key ~experiment:id) jobs
      else (jobs, 0)
    in
    (* Quarantined jobs re-schedule only while retry budget remains;
       ones that already burned [retries + 1] attempts in earlier runs
       stay quarantined (pass a larger [retries] to re-open them). *)
    let todo, exhausted =
      List.partition
        (fun j -> prior_attempts (job_key ~experiment:id j) < budget)
        todo
    in
    let tasks = Array.of_list todo in
    let n = Array.length tasks in
    let quarantined_keys =
      ref (List.rev (List.rev_map (job_key ~experiment:id) exhausted))
    in
    if exhausted <> [] then
      log
        (Printf.sprintf
           "[%s] %d job(s) already exhausted their retry budget; left \
            quarantined: %s"
           id (List.length exhausted)
           (String.concat " " !quarantined_keys));
    let failure_count = ref 0 in
    let executed = ref 0 in
    let interrupted = ref false in
    let sink = Sink.create ~dir:out_dir ~experiment:id ~append:resume in
    let fsink = Fault.create ~dir:out_dir ~experiment:id ~append:resume in
    let wd =
      Option.map (fun t -> Watchdog.create ~workers ~timeout:t) job_timeout
    in
    Fun.protect
      ~finally:(fun () ->
        (* Failure path included: watchdog joined, both stores closed,
           before any exception propagates. *)
        Option.iter Watchdog.stop wd;
        Fault.close fsink;
        Sink.close sink)
      (fun () ->
        Option.iter
          (fun w ->
            Watchdog.start w
              ~on_stall:(fun ~key ~elapsed ->
                log
                  (Printf.sprintf
                     "[%s] watchdog: job %s running for %.1fs (--job-timeout \
                      %gs)"
                     id key elapsed (Watchdog.timeout w))))
          wd;
        let meter =
          if progress then Some (Progress.create ~label:id ~total:n ())
          else None
        in
        let mkfail (job : Experiment.job) ~attempt ~seed ~error ~backtrace
            ~wall_ns =
          {
            Fault.key = job_key ~experiment:id job;
            experiment = id;
            sweep_point = job.Experiment.sweep_point;
            trial = job.Experiment.trial;
            attempt;
            seed;
            error;
            backtrace;
            wall_ns;
          }
        in
        let derive (job : Experiment.job) ~attempt =
          Seed_tree.derive_attempt ~root:ctx.Experiment.seed ~experiment:id
            ~sweep_point:job.Experiment.sweep_point
            ~trial:job.Experiment.trial ~attempt
        in
        (* One job: bounded deterministic retry.  Returns the failure
           records of this run's failed attempts plus the successful
           record, if any attempt within budget succeeded. *)
        let run_one ~worker i (job : Experiment.job) =
          let key = job_key ~experiment:id job in
          let rec go attempt acc =
            if attempt >= budget then (List.rev acc, None)
            else begin
              let seed = derive job ~attempt in
              Option.iter
                (fun w -> Watchdog.job_started w ~worker ~index:i ~key ~attempt)
                wd;
              let t0 = wall_now () in
              let result =
                match job.Experiment.run_job ~seed with
                | values -> Ok values
                | exception e -> Error (e, Printexc.get_raw_backtrace ())
              in
              let wall_ns = (wall_now () -. t0) *. 1e9 in
              Option.iter (fun w -> Watchdog.job_finished w ~worker) wd;
              match result with
              | Error (e, bt) ->
                go (attempt + 1)
                  (mkfail job ~attempt ~seed ~error:(Printexc.to_string e)
                     ~backtrace:(Printexc.raw_backtrace_to_string bt)
                     ~wall_ns
                  :: acc)
              | Ok values -> (
                match job_timeout with
                | Some t when wall_ns > t *. 1e9 ->
                  (* Finished, but over deadline: the wall clock of the
                     attempt itself decides, so the verdict is the same
                     at any worker count. *)
                  go (attempt + 1)
                    (mkfail job ~attempt ~seed
                       ~error:
                         (Printf.sprintf
                            "timeout: attempt took %.3fs (--job-timeout %gs)"
                            (wall_ns /. 1e9) t)
                       ~backtrace:"" ~wall_ns
                    :: acc)
                | _ ->
                  ( List.rev acc,
                    Some
                      {
                        Sink.key;
                        experiment = id;
                        sweep_point = job.Experiment.sweep_point;
                        point_label = job.Experiment.point_label;
                        trial = job.Experiment.trial;
                        attempt;
                        seed;
                        params = job.Experiment.params;
                        values;
                        wall_ns;
                      } ))
            end
          in
          go (prior_attempts key) []
        in
        let consume i (fails, record) =
          incr executed;
          List.iter
            (fun fl ->
              Fault.write fsink fl;
              incr failure_count)
            fails;
          match record with
          | Some r ->
            Sink.write sink r;
            Option.iter Progress.tick meter
          | None ->
            quarantined_keys :=
              job_key ~experiment:id tasks.(i) :: !quarantined_keys;
            Option.iter Progress.fail meter
        in
        let on_abandon (v : Watchdog.view) =
          let job = tasks.(v.Watchdog.index) in
          incr executed;
          Fault.write fsink
            (mkfail job ~attempt:v.Watchdog.attempt
               ~seed:(derive job ~attempt:v.Watchdog.attempt)
               ~error:
                 (Printf.sprintf
                    "watchdog: abandoned after %.1fs (--job-timeout %gs); \
                     worker domain left parked in the stuck attempt"
                    v.Watchdog.elapsed
                    (Option.value ~default:0. job_timeout))
               ~backtrace:"" ~wall_ns:(v.Watchdog.elapsed *. 1e9));
          incr failure_count;
          quarantined_keys := v.Watchdog.key :: !quarantined_keys;
          Option.iter Progress.fail meter
        in
        let pool_outcome =
          Pool.run_guarded ~workers ?watchdog:wd ~should_stop ~grace
            ~on_abandon ~f:run_one ~consume tasks
        in
        interrupted := pool_outcome = Pool.Interrupted;
        Option.iter Progress.finish meter);
    Some
      {
        experiment = id;
        total_jobs;
        skipped;
        executed = !executed;
        quarantined = List.length !quarantined_keys;
        failed_keys = List.rev !quarantined_keys;
        failures = !failure_count;
        malformed = scan.Checkpoint.malformed_mid;
        interrupted = !interrupted;
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

let write_manifest ~out_dir ~ids ~workers ~resume ~status ~retries ~job_timeout
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
      ("retries", string_of_int retries);
      ( "job_timeout",
        match job_timeout with
        | None -> "none"
        | Some t -> Printf.sprintf "%g" t );
      ("resume", string_of_bool resume);
      ("status", status);
      ("written_at", Printf.sprintf "%.0f" (wall_now ()));
    ]
