let log2 x = log x /. log 2.

(* Mean per-batch exhaustion counts over trials: counts.(i) = number of
   processes whose TryGetName(i) failed, i.e. n_{i+1} of the analysis. *)
let measure ~ctx ~n instance =
  let kappa = Renaming.Rebatching.kappa instance in
  let sums = Array.make (kappa + 1) 0. in
  for trial = 0 to ctx.Experiment.trials - 1 do
    let counts = Array.make (kappa + 1) 0 in
    let on_event ~pid:_ = function
      | Renaming.Events.Batch_failed { batch; _ } when batch >= 0 ->
        counts.(batch) <- counts.(batch) + 1
      | _ -> ()
    in
    let algo env = Renaming.Rebatching.get_name env instance in
    let r =
      Sim.Runner.run_sequential ~on_event ~seed:(ctx.seed + trial) ~n ~algo ()
    in
    if not (Sim.Runner.check_unique_names r) then failwith "T3: uniqueness violated";
    Array.iteri (fun i c -> sums.(i) <- sums.(i) +. float_of_int c) counts
  done;
  Array.map (fun s -> s /. float_of_int ctx.trials) sums

let bound ~n ~kappa i =
  (* n*_{i+1} of Lemma 4.2, displayed with delta = 0. *)
  let fn = float_of_int n in
  if i >= kappa then Float.max 1. (log2 fn ** 2.)
  else begin
    let idx = i + 1 in
    fn /. (2. ** ((2. ** float_of_int idx) +. float_of_int idx))
  end

let run (ctx : Experiment.ctx) =
  let n = Sweep.scaled ctx.scale 16384 in
  List.iter
    (fun (label, t0) ->
      let instance =
        match t0 with
        | None -> Renaming.Rebatching.make ~n ()
        | Some t0 -> Renaming.Rebatching.make ~t0 ~n ()
      in
      let kappa = Renaming.Rebatching.kappa instance in
      let measured = measure ~ctx ~n instance in
      let table =
        Table.create
          ~columns:
            [
              ("batch i", Table.Right);
              ("|B_i|", Table.Right);
              ("t_i", Table.Right);
              ("survivors n_{i+1}", Table.Right);
              ("bound n*_{i+1}", Table.Right);
              ("within bound", Table.Left);
            ]
      in
      Array.iteri
        (fun i m ->
          let b = bound ~n ~kappa i in
          Table.add_row table
            [
              Table.cell_int i;
              Table.cell_int (Renaming.Rebatching.batch_size instance i);
              Table.cell_int (Renaming.Rebatching.probe_budget instance i);
              Table.cell_float m;
              Table.cell_float b;
              (if m <= b then "yes" else "NO");
            ])
        measured;
      ctx.emit_table
        ~title:(Printf.sprintf "T3: batch survivors, n=%d, %s" n label)
        table)
    [ ("paper t0", None); ("tuned t0=3", Some 3) ];
  ctx.log
    "T3 note: the Lemma 4.2 bound formally applies to the paper budget; the \
     tuned table shows the same doubly-exponential decay shape."

let exp =
  {
    Experiment.id = "t3";
    title = "Batch survivor counts (Lemma 4.2)";
    claim = "Lemma 4.2: w.h.p. n_i <= n/2^(2^i+i+delta) and n_kappa <= log^2 n";
    body = Experiment.Serial run;
  }
