(* The large-n artifact: fold the JSONL stores that [Plan.run_batch]
   wrote for the t1l/t5l (series, n, trial) jobs into a committed BENCH
   artifact.

   Everything the artifact contains except the timing fields is a pure
   function of (seed, grid): jobs are seeded per (sweep_point, trial)
   coordinate by [Seed_tree], only the records of the jobs the plans
   request are read, deduplicated by key and aggregated in sorted order,
   so one domain or eight, and a fresh store or a resumed one, produce
   the same rows — the properties test_sweep pins.

   Artifact kind is "bench-large" (schema 1), sharing the BENCH_<k>.json
   numbering with the kernel microbench (kind "bench", [Kernel_bench]);
   `repro_cli bench --check` and `doctor` dispatch on the kind field. *)

open Harness

let name = "bench-large"
let schema = 1

type row = {
  experiment : string;
  series : string;
  n : int;
  trials : int;
  mean_max_steps : float;
  min_max_steps : float;
  max_max_steps : float;
  mean_total_steps : float;
  mean_space_used : float;
  mean_max_name : float;
  words_per_op : float;  (* worst trial — the 0-alloc gate *)
  ns_per_op : float;  (* mean wall per step; informational, never gated *)
  wall_s : float;  (* total wall across trials *)
}

type artifact = { seed : int; rows : row list }

(* ------------------------------------------------------------------ *)
(* Aggregation *)

let series_of_label label =
  match String.index_opt label '/' with
  | Some i -> String.sub label 0 i
  | None -> label

let value key r =
  match List.assoc_opt key r.Sink.values with
  | Some v -> v
  | None ->
    failwith
      (Printf.sprintf "Sweep.aggregate: record %s has no %S value" r.Sink.key
         key)

let rows_of_store ~store ~experiment ~requested =
  (* Keep the first record of each requested job key (the one a resume
     scan counts) and drop its key from [requested]: later duplicates can
     only come from crash overlap, and records of keys never requested
     from a store first written with a wider grid. *)
  let records =
    List.filter
      (fun r ->
        Hashtbl.mem requested r.Sink.key
        && (Hashtbl.remove requested r.Sink.key;
            true))
      (Checkpoint.records store)
  in
  let groups = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let n =
        match List.assoc_opt "n" r.Sink.params with
        | Some f -> int_of_float f
        | None -> failwith "Sweep.aggregate: record has no n param"
      in
      let key = (series_of_label r.Sink.point_label, n) in
      Hashtbl.replace groups key
        (r :: (try Hashtbl.find groups key with Not_found -> [])))
    records;
  let keys =
    List.sort_uniq compare (List.of_seq (Hashtbl.to_seq_keys groups))
  in
  List.map
    (fun (series, n) ->
      let rs =
        List.sort
          (fun a b -> compare a.Sink.trial b.Sink.trial)
          (Hashtbl.find groups (series, n))
      in
      let trials = List.length rs in
      let fold init f g = List.fold_left (fun a r -> f a (g r)) init rs in
      let mean g = fold 0. ( +. ) g /. float_of_int trials in
      let total_wall_ns = fold 0. ( +. ) (fun r -> r.Sink.wall_ns) in
      let total_steps_all = fold 0. ( +. ) (value "total_steps") in
      {
        experiment;
        series;
        n;
        trials;
        mean_max_steps = mean (value "max_steps");
        min_max_steps = fold infinity min (value "max_steps");
        max_max_steps = fold 0. max (value "max_steps");
        mean_total_steps = mean (value "total_steps");
        mean_space_used = mean (value "space_used");
        mean_max_name = mean (value "max_name");
        words_per_op = fold 0. max (value "words_per_op");
        ns_per_op =
          (if total_steps_all > 0. then total_wall_ns /. total_steps_all
           else 0.);
        wall_s = total_wall_ns /. 1e9;
      })
    keys

let aggregate ~store_dir ~(plans : (Experiment.t * Experiment.ctx) list) =
  match plans with
  | [] -> invalid_arg "Sweep.aggregate: no plans"
  | (_, ctx0) :: _ ->
    let rows =
      List.concat_map
        (fun (exp, ctx) ->
          let experiment = exp.Experiment.id in
          let requested = Hashtbl.create 256 in
          List.iter
            (fun job ->
              Hashtbl.replace requested (Plan.job_key ~experiment job) ())
            (Option.value ~default:[] (Plan.plan ~ctx exp));
          rows_of_store
            ~store:(Sink.store_path ~dir:store_dir ~experiment)
            ~experiment ~requested)
        plans
    in
    { seed = ctx0.Experiment.seed; rows }

(* ------------------------------------------------------------------ *)
(* JSON codec: one row per line, so diffs of the committed baseline
   read row by row *)

let encode a =
  let row r =
    Jsonu.to_string
      (Jsonu.Obj
         [
           ("experiment", Jsonu.Str r.experiment);
           ("series", Jsonu.Str r.series);
           ("n", Jsonu.Int r.n);
           ("trials", Jsonu.Int r.trials);
           ("mean_max_steps", Jsonu.Num r.mean_max_steps);
           ("min_max_steps", Jsonu.Num r.min_max_steps);
           ("max_max_steps", Jsonu.Num r.max_max_steps);
           ("mean_total_steps", Jsonu.Num r.mean_total_steps);
           ("mean_space_used", Jsonu.Num r.mean_space_used);
           ("mean_max_name", Jsonu.Num r.mean_max_name);
           ("words_per_op", Jsonu.Num r.words_per_op);
           ("ns_per_op", Jsonu.Num r.ns_per_op);
           ("wall_s", Jsonu.Num r.wall_s);
         ])
  in
  Printf.sprintf "{\"kind\":%S,\"schema\":%d,\"seed\":%d,\"rows\":[\n%s\n]}\n"
    name schema a.seed
    (String.concat ",\n" (List.map (fun r -> "  " ^ row r) a.rows))

let decode fields =
  let row j =
    let f = Jsonu.obj j in
    {
      experiment = Jsonu.str f "experiment";
      series = Jsonu.str f "series";
      n = Jsonu.int_ f "n";
      trials = Jsonu.int_ f "trials";
      mean_max_steps = Jsonu.num f "mean_max_steps";
      min_max_steps = Jsonu.num f "min_max_steps";
      max_max_steps = Jsonu.num f "max_max_steps";
      mean_total_steps = Jsonu.num f "mean_total_steps";
      mean_space_used = Jsonu.num f "mean_space_used";
      mean_max_name = Jsonu.num f "mean_max_name";
      words_per_op = Jsonu.num f "words_per_op";
      ns_per_op = Jsonu.num f "ns_per_op";
      wall_s = Jsonu.num f "wall_s";
    }
  in
  {
    seed = Jsonu.int_ fields "seed";
    rows = List.map row (Jsonu.arr fields "rows");
  }

(* ------------------------------------------------------------------ *)
(* Audit and regression gates *)

(* A streaming-core step that boxes shows up as >= 1 word/op; the meter
   itself contributes a few words per multi-thousand-step trial.  0.01
   words/op separates the two by orders of magnitude on every decade. *)
let zero_alloc_budget = 0.01

let series_keys a =
  List.sort_uniq compare (List.map (fun r -> (r.experiment, r.series)) a.rows)

let audit a =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if a.rows = [] then problem "artifact has no rows";
  List.iter
    (fun (experiment, series) ->
      let rows =
        List.filter
          (fun r -> r.experiment = experiment && r.series = series)
          a.rows
      in
      let rec check_grid = function
        | a :: (b :: _ as rest) ->
          if b.n <> 10 * a.n then
            problem "%s/%s: n grid not decade-monotone (%d then %d, want %d)"
              experiment series a.n b.n (10 * a.n);
          check_grid rest
        | _ -> ()
      in
      check_grid rows;
      List.iter
        (fun r ->
          let where = Printf.sprintf "%s/%s n=%d" experiment series r.n in
          if r.trials < 1 then problem "%s: empty decade (no samples)" where;
          if r.mean_max_steps < 1. then
            problem "%s: mean_max_steps %g < 1" where r.mean_max_steps;
          if r.mean_space_used < 1. then
            problem "%s: mean_space_used %g < 1" where r.mean_space_used;
          if r.words_per_op > zero_alloc_budget then
            problem "%s: words/op %.4f exceeds the zero-allocation budget %.2f"
              where r.words_per_op zero_alloc_budget;
          List.iter
            (fun (label, v) ->
              if not (Float.is_finite v) then
                problem "%s: %s is not finite" where label)
            [
              ("mean_max_steps", r.mean_max_steps);
              ("mean_total_steps", r.mean_total_steps);
              ("mean_space_used", r.mean_space_used);
              ("words_per_op", r.words_per_op);
              ("ns_per_op", r.ns_per_op);
            ])
        rows)
    (series_keys a);
  List.rev !problems

let regress ~threshold ~baseline ~current =
  List.concat_map
    (fun cur ->
      let where = Printf.sprintf "%s/%s n=%d" cur.experiment cur.series cur.n in
      match
        List.find_opt
          (fun b ->
            b.experiment = cur.experiment
            && b.series = cur.series
            && b.n = cur.n)
          baseline.rows
      with
      | None -> [ Printf.sprintf "%s: not in the baseline artifact" where ]
      | Some base ->
        let band = Float.max 1.0 (threshold *. base.mean_max_steps) in
        let sband = Float.max 2.0 (threshold *. base.mean_space_used) in
        List.filter_map Fun.id
          [
            Artifact.finding
              (Float.abs (cur.mean_max_steps -. base.mean_max_steps) > band)
              "%s: mean max steps %.2f vs baseline %.2f (band +/-%.2f)" where
              cur.mean_max_steps base.mean_max_steps band;
            Artifact.finding
              (Float.abs (cur.mean_space_used -. base.mean_space_used) > sband)
              "%s: space used %.0f vs baseline %.0f (band +/-%.0f)" where
              cur.mean_space_used base.mean_space_used sband;
          ])
    current.rows

(* ------------------------------------------------------------------ *)
(* Rendering *)

let render a =
  let table =
    Table.create
      ~columns:
        [
          ("series", Table.Left);
          ("n", Table.Right);
          ("trials", Table.Right);
          ("max steps", Table.Right);
          ("steps/proc", Table.Right);
          ("space/n", Table.Right);
          ("ns/op", Table.Right);
          ("words/op", Table.Right);
          ("wall s", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Printf.sprintf "%s/%s" r.experiment r.series;
          Table.cell_int r.n;
          Table.cell_int r.trials;
          Table.cell_float r.mean_max_steps;
          Table.cell_float (r.mean_total_steps /. float_of_int r.n);
          Table.cell_float (r.mean_space_used /. float_of_int r.n);
          Table.cell_float r.ns_per_op;
          Table.cell_float ~decimals:3 r.words_per_op;
          Table.cell_float ~decimals:1 r.wall_s;
        ])
    a.rows;
  Table.render table

let summary a =
  Printf.sprintf "bench-large sweep, seed=%d, %d row(s) across %d series"
    a.seed (List.length a.rows)
    (List.length (series_keys a))

let kind =
  {
    Artifact.name;
    schema;
    prefix = "BENCH_";
    encode;
    decode;
    render;
    summary;
    audit;
    regress;
  }
