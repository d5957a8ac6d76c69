let log2 x = log x /. log 2.

let run (ctx : Experiment.ctx) =
  let sizes =
    List.map (Sweep.scaled ctx.scale)
      (Sweep.geometric_sizes ~lo:64 ~hi:262144 ~factor:4)
  in
  let table =
    Table.create
      ~columns:
        [
          ("n", Table.Right);
          ("levels", Table.Right);
          ("survivors (oblivious)", Table.Right);
          ("levels to <=2", Table.Right);
          ("survivors (anti-sifter)", Table.Right);
          ("loglog2 n", Table.Right);
        ]
  in
  let series = ref [] in
  List.iter
    (fun n ->
      let levels = Rwtas.Cascade.suggested_levels ~n in
      let oblivious_survivors = Stats.Summary.acc_create () in
      let to_two = Stats.Summary.acc_create () in
      for trial = 0 to ctx.trials - 1 do
        let r = Rwtas.Cascade.run ~seed:(ctx.seed + trial) ~n () in
        Stats.Summary.acc_add oblivious_survivors
          (float_of_int (Rwtas.Cascade.survivors r));
        let reach =
          let found = ref levels in
          Array.iteri
            (fun l s -> if s <= 2 && l < !found then found := l)
            r.Rwtas.Cascade.survivors_per_level;
          !found
        in
        Stats.Summary.acc_add to_two (float_of_int reach)
      done;
      let anti =
        Rwtas.Cascade.run ~adversary:Rwtas.Anti_sifter.adversary ~seed:ctx.seed
          ~n ()
      in
      series := (n, Stats.Summary.acc_mean to_two) :: !series;
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int levels;
          Table.cell_float (Stats.Summary.acc_mean oblivious_survivors);
          Table.cell_float (Stats.Summary.acc_mean to_two);
          Table.cell_int (Rwtas.Cascade.survivors anti);
          Table.cell_float (log2 (log2 (float_of_int n)));
        ])
    sizes;
  ctx.emit_table
    ~title:
      "T17: sifter cascade (refs [3,22]) — oblivious collapse vs strong-adversary \
       immunity"
    table;
  let data = List.rev !series in
  let sizes_arr = Array.of_list (List.map (fun (n, _) -> float_of_int n) data) in
  let values = Array.of_list (List.map snd data) in
  ctx.log "T17 fits, levels until <= 2 survivors (oblivious):";
  List.iter ctx.log
    (Sweep.fit_lines
       ~models:[ Stats.Regression.Log_log; Stats.Regression.Log ]
       ~sizes:sizes_arr ~values);
  ctx.log
    "T17 note: the anti-sifter column equals n at every size — a strong \
     adversary nullifies sifting entirely, which is why the paper assumes \
     hardware TAS for its strong-adversary bounds."

let exp =
  {
    Experiment.id = "t17";
    title = "Sifter cascades: weak vs strong adversary (context reproduction)";
    claim =
      "Refs [3,22]: read/write sifters reach O(1) survivors in \
       Theta(log log n) levels against a weak adversary — and fail totally \
       against a strong one";
    body = Experiment.Serial run;
  }
