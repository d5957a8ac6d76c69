let log2 x = log x /. log 2.

(* Max distinct processes accessing a single location, mean over trials. *)
let measure ~ctx ~k make_algo =
  let maxima =
    Sweep.collect_seeds ~seed:ctx.Experiment.seed ~trials:ctx.Experiment.trials
      (fun seed ->
        let visitors : (int, (int, unit) Hashtbl.t) Hashtbl.t =
          Hashtbl.create 1024
        in
        let on_event ~pid = function
          | Renaming.Events.Probe { location; _ } ->
            let set =
              match Hashtbl.find_opt visitors location with
              | Some s -> s
              | None ->
                let s = Hashtbl.create 4 in
                Hashtbl.replace visitors location s;
                s
            in
            Hashtbl.replace set pid ()
          | _ -> ()
        in
        let algo = make_algo () in
        let r = Sim.Runner.run ~on_event ~seed ~n:k ~algo () in
        if not (Sim.Runner.check_unique_names r) then
          failwith "T15: uniqueness violated";
        Seq.fold_left
          (fun acc set -> max acc (Hashtbl.length set))
          0
          (Hashtbl.to_seq_values visitors))
  in
  Stats.Summary.mean (Array.of_list (List.map float_of_int maxima))

let run (ctx : Experiment.ctx) =
  let sizes =
    List.map (Sweep.scaled ctx.scale) (Sweep.geometric_sizes ~lo:16 ~hi:4096 ~factor:4)
  in
  let table =
    Table.create
      ~columns:
        [
          ("k", Table.Right);
          ("rebatching", Table.Right);
          ("adaptive", Table.Right);
          ("fast-adaptive", Table.Right);
          ("log2 k", Table.Right);
        ]
  in
  let series = ref [] in
  List.iter
    (fun k ->
      let rebatching =
        measure ~ctx ~k (fun () ->
            let instance = Renaming.Rebatching.make ~t0:3 ~n:k () in
            fun env -> Renaming.Rebatching.get_name env instance)
      in
      let adaptive =
        measure ~ctx ~k (fun () ->
            let space = Renaming.Object_space.create ~t0:3 () in
            fun env -> Renaming.Adaptive_rebatching.get_name env space)
      in
      let fast =
        measure ~ctx ~k (fun () ->
            let space = Renaming.Object_space.create ~t0:3 () in
            fun env -> Renaming.Fast_adaptive_rebatching.get_name env space)
      in
      series := (k, rebatching) :: !series;
      Table.add_row table
        [
          Table.cell_int k;
          Table.cell_float rebatching;
          Table.cell_float adaptive;
          Table.cell_float fast;
          Table.cell_float (log2 (float_of_int k));
        ])
    sizes;
  ctx.emit_table
    ~title:"T15: max distinct processes per TAS object (footnote 1: O(log k))"
    table;
  let data = List.rev !series in
  let sizes_arr = Array.of_list (List.map (fun (k, _) -> float_of_int k) data) in
  let values = Array.of_list (List.map snd data) in
  ctx.log "T15 fits, ReBatching max visitors per object:";
  List.iter ctx.log
    (Sweep.fit_lines
       ~models:[ Stats.Regression.Log; Stats.Regression.Log_log; Stats.Regression.Sqrt ]
       ~sizes:sizes_arr ~values);
  ctx.log
    "T15 finding (D2): the O(log k) footnote holds for ReBatching, but the \
     adaptive race phase drives all k processes through the constant-size \
     objects R_1, R_2, so their per-object visitor counts are Theta(k) (each \
     visitor spends O(1) probes there).  The footnote's simulation argument \
     needs per-object work, not per-object visitors, on those levels."

let exp =
  {
    Experiment.id = "t15";
    title = "Per-object access counts (footnote 1)";
    claim = "Footnote 1: each TAS object is accessed by O(log k) processes w.h.p.";
    body = Experiment.Serial run;
  }
