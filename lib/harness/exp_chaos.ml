(* B2: the multicore analogue of T8.  The simulator's crash adversary
   (T8) decides crashes adaptively; here the crash schedule is a
   deterministic Chaos.Fault_plan executed against real atomics, so the
   nastiest point of the model — fail-stop after a TAS win, before the
   name is recorded — happens on genuine hardware and the leaked slot is
   accounted for, not just tolerated. *)

let algo_name = "rebatching"

let fractions procs =
  [ 0.0; 0.1; 0.5; 0.9; float_of_int (procs - 1) /. float_of_int procs ]

let plan_for ~seed ~procs ~fraction =
  match Chaos.Algos.find algo_name with
  | Error e -> failwith e
  | Ok build ->
    let algo, capacity = build ~n:procs ~t0:3 in
    let plan =
      Chaos.Fault_plan.make ~seed ~procs ~algo:algo_name ~capacity
        ~crash_frac:fraction ~pause_frac:0.25 ()
    in
    (plan, algo)

(* A trial whose invariant monitor reports a violation raises: a broken
   §2 guarantee is a failure, not a table cell. *)
let jobs (ctx : Experiment.ctx) =
  let procs = Sweep.scaled ctx.scale 128 in
  Experiment.sweep ctx (fractions procs)
    ~label:(Printf.sprintf "frac=%.3f")
    ~params:(fun fraction ->
      [ ("procs", float_of_int procs); ("crash_frac", fraction) ])
    (fun fraction ~seed ->
      let plan, algo = plan_for ~seed ~procs ~fraction in
      let o = Chaos.Chaos_runner.run ~plan ~algo () in
      let v = o.Chaos.Chaos_runner.verdict in
      if not (Chaos.Chaos_runner.ok v) then
        failwith
          ("B2: invariants violated: "
          ^ String.concat ", " v.Chaos.Chaos_runner.violations);
      [
        ("armed", float_of_int (List.length plan.Chaos.Fault_plan.crashes));
        ("fired", float_of_int (List.length v.Chaos.Chaos_runner.fired));
        ("survivors", float_of_int v.Chaos.Chaos_runner.survivors);
        ("leaked", float_of_int v.Chaos.Chaos_runner.leaked);
        ("max_name", float_of_int v.Chaos.Chaos_runner.max_name);
      ])

let tables (ctx : Experiment.ctx) results =
  let procs = Sweep.scaled ctx.scale 128 in
  let table =
    Table.create
      ~columns:
        [
          ("crash fraction", Table.Right);
          ("armed (mean)", Table.Right);
          ("fired (mean)", Table.Right);
          ("survivors", Table.Right);
          ("leaked slots", Table.Right);
          ("max name", Table.Right);
        ]
  in
  List.iteri
    (fun point fraction ->
      let mean = Experiment.mean results ~point in
      Table.add_row table
        [
          Table.cell_float fraction;
          Table.cell_float ~decimals:1 (mean "armed");
          Table.cell_float ~decimals:1 (mean "fired");
          Table.cell_float ~decimals:1 (mean "survivors");
          Table.cell_float ~decimals:1 (mean "leaked");
          Table.cell_float ~decimals:0 (mean "max_name");
        ])
    (fractions procs);
  ctx.emit_table
    ~title:
      (Printf.sprintf "B2: injected crashes on real atomics, %s, procs=%d"
         algo_name procs)
    table;
  ctx.log
    "B2 note: armed crashes fire only if the process reaches its armed \
     operation; leaked slots must equal fired after-win crashes exactly."

let exp =
  {
    Experiment.id = "b2";
    title = "Crash injection on real shared memory";
    claim =
      "§2 crash model on multicore: survivors terminate with unique bounded \
       names under fail-stops at any step, including after a TAS win";
    body = Experiment.Trials { jobs; tables };
  }
