(* Churn driver: each process performs [rounds] acquire/release cycles
   and returns its last name (so the runner's uniqueness check remains
   meaningful for the final holders). *)
let churn_algo object_ rounds (env : Renaming.Env.t) =
  let rec cycle r last =
    if r = 0 then last
    else
      match Renaming.Long_lived.acquire env object_ with
      | None -> None
      | Some u ->
        if r = 1 then Some u
        else begin
          Renaming.Long_lived.release env object_ u;
          cycle (r - 1) (Some u)
        end
  in
  cycle rounds None

(* Event-stream safety monitor: no name may be acquired while held. *)
let make_monitor () =
  let held : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let violations = ref 0 in
  let acquisitions = ref 0 in
  let distinct : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let max_name = ref (-1) in
  let on_event ~pid:_ = function
    | Renaming.Events.Name_acquired { name; _ } ->
      incr acquisitions;
      Hashtbl.replace distinct name ();
      if name > !max_name then max_name := name;
      if Hashtbl.mem held name then incr violations
      else Hashtbl.replace held name ()
    | Renaming.Events.Name_released { name; _ } -> Hashtbl.remove held name
    | _ -> ()
  in
  (on_event, violations, acquisitions, distinct, max_name)

let run (ctx : Experiment.ctx) =
  let n = Sweep.scaled ctx.scale 128 in
  let object_ = Renaming.Long_lived.make ~t0:3 ~n () in
  let m = Renaming.Rebatching.size (Renaming.Long_lived.instance object_) in
  let table =
    Table.create
      ~columns:
        [
          ("rounds", Table.Right);
          ("acquisitions", Table.Right);
          ("namespace m", Table.Right);
          ("distinct names", Table.Right);
          ("max name", Table.Right);
          ("steps/acquire", Table.Right);
          ("double-holds", Table.Right);
        ]
  in
  List.iter
    (fun rounds ->
      let on_event, violations, acquisitions, distinct, max_name =
        make_monitor ()
      in
      let algo = churn_algo object_ rounds in
      let r = Sim.Runner.run ~on_event ~seed:ctx.seed ~n ~algo () in
      if not (Sim.Runner.check_unique_names r) then failwith "T11: final holders collide";
      Table.add_row table
        [
          Table.cell_int rounds;
          Table.cell_int !acquisitions;
          Table.cell_int m;
          Table.cell_int (Hashtbl.length distinct);
          Table.cell_int !max_name;
          Table.cell_float
            (float_of_int r.Sim.Runner.total_steps /. float_of_int !acquisitions);
          Table.cell_int !violations;
        ])
    [ 1; 4; 16; 64 ];
  ctx.emit_table
    ~title:
      (Printf.sprintf
         "T11: long-lived churn, %d concurrent workers (namespace stays put \
          as acquisitions grow)"
         n)
    table;
  ctx.log
    "T11 note: one-shot renaming would need ~acquisitions names; long-lived \
     reuse keeps every name below m."

let exp =
  {
    Experiment.id = "t11";
    title = "Long-lived renaming under churn (extension)";
    claim =
      "Long-lived extension: holders always have distinct names and the \
       namespace stays O(concurrent contention) over unbounded acquisitions";
    body = Experiment.Serial run;
  }
