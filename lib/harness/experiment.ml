type ctx = {
  seed : int;
  trials : int;
  scale : float;
  emit_table : title:string -> Table.t -> unit;
  log : string -> unit;
}

type job = {
  sweep_point : int;
  point_label : string;
  trial : int;
  params : (string * float) list;
  run_job : seed:int -> (string * float) list;
}

type result = job * (string * float) list

type body =
  | Serial of (ctx -> unit)
  | Trials of {
      jobs : ctx -> job list;
      tables : ctx -> result list -> unit;
    }

type t = { id : string; title : string; claim : string; body : body }

let run e ctx =
  match e.body with
  | Serial run -> run ctx
  | Trials { jobs; tables } ->
    let results =
      List.map
        (fun job -> (job, job.run_job ~seed:(ctx.seed + job.trial)))
        (jobs ctx)
    in
    tables ctx results

let sweep ?trials ?(sweep_point = fun i _ -> i) ctx points ~label ~params
    measure =
  let trials = Option.value trials ~default:(fun _ -> ctx.trials) in
  List.concat
    (List.mapi
       (fun i p ->
         List.init (trials p) (fun trial ->
             {
               sweep_point = sweep_point i p;
               point_label = label p;
               trial;
               params = params p;
               run_job = measure p;
             }))
       points)

let values results ~point key =
  Array.of_list
    (List.filter_map
       (fun (job, values) ->
         if job.sweep_point = point then Some (List.assoc key values) else None)
       results)

let mean results ~point key =
  (Stats.Summary.of_array (values results ~point key)).Stats.Summary.mean

let default_ctx ?(seed = 1) ?(trials = 5) ?(scale = 1.0) () =
  (* The default ctx IS the CLI's stdout sink; every other ctx writes
     to a caller-supplied channel.  repro-lint: allow stdout-print *)
  let out = print_string in
  {
    seed;
    trials;
    scale;
    emit_table =
      (fun ~title table -> out ("\n" ^ title ^ "\n" ^ Table.render table));
    log = (fun line -> out (line ^ "\n"));
  }
