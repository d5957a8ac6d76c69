(* Tests for lib/harness: tables, sweeps, experiment registry. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Table *)

let sample_table () =
  let t =
    Harness.Table.create
      ~columns:[ ("name", Harness.Table.Left); ("value", Harness.Table.Right) ]
  in
  Harness.Table.add_row t [ "alpha"; "1" ];
  Harness.Table.add_row t [ "b"; "22" ];
  t

let test_table_counts () =
  let t = sample_table () in
  checki "rows" 2 (Harness.Table.row_count t);
  checki "columns" 2 (Harness.Table.column_count t)

let test_table_render_alignment () =
  let t = sample_table () in
  let rendered = Harness.Table.render t in
  let lines = String.split_on_char '\n' rendered in
  (match lines with
  | header :: rule :: row1 :: row2 :: _ ->
    checkb "header has both names" true
      (String.length header > 0
      && String.length rule > 0
      && String.length row1 = String.length row2)
  | _ -> Alcotest.fail "unexpected shape");
  checkb "right-aligned value column" true
    (let row_b = List.nth lines 3 in
     (* "b" row: value 22 is right-aligned under a 5-wide 'value' column *)
     String.length row_b >= 2)

let test_table_markdown () =
  let md = Harness.Table.render_markdown (sample_table ()) in
  checkb "has pipes" true (String.contains md '|');
  checkb "has alignment row" true
    (String.length md > 0
    &&
    match String.index_opt md '-' with Some _ -> true | None -> false);
  checkb "right align marker" true
    (let contains_sub s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains_sub md "---:")

let test_table_csv_escaping () =
  let t = Harness.Table.create ~columns:[ ("c", Harness.Table.Left) ] in
  Harness.Table.add_row t [ "plain" ];
  Harness.Table.add_row t [ "with,comma" ];
  Harness.Table.add_row t [ "with\"quote" ];
  let csv = Harness.Table.to_csv t in
  checks "csv"
    "c\nplain\n\"with,comma\"\n\"with\"\"quote\"\n"
    csv

let test_table_invalid () =
  Alcotest.check_raises "no columns" (Invalid_argument "Table.create: no columns")
    (fun () -> ignore (Harness.Table.create ~columns:[]));
  let t = sample_table () in
  Alcotest.check_raises "wrong cells"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Harness.Table.add_row t [ "only one" ])

let test_cell_formatters () =
  checks "int" "42" (Harness.Table.cell_int 42);
  checks "float" "3.14" (Harness.Table.cell_float ~decimals:2 3.14159);
  checks "nan" "-" (Harness.Table.cell_float Float.nan);
  checks "ratio" "0.500" (Harness.Table.cell_ratio 1. 2.);
  checks "ratio by zero" "-" (Harness.Table.cell_ratio 1. 0.)

(* ------------------------------------------------------------------ *)
(* Sweep *)

let test_geometric_sizes () =
  Alcotest.(check (list int))
    "powers of 2"
    [ 4; 8; 16; 32 ]
    (Harness.Sweep.geometric_sizes ~lo:4 ~hi:32 ~factor:2);
  Alcotest.(check (list int))
    "factor 4 stops inside hi"
    [ 3; 12; 48 ]
    (Harness.Sweep.geometric_sizes ~lo:3 ~hi:100 ~factor:4);
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Sweep.geometric_sizes: factor must be >= 2") (fun () ->
      ignore (Harness.Sweep.geometric_sizes ~lo:1 ~hi:2 ~factor:1))

let test_scaled () =
  checki "identity" 100 (Harness.Sweep.scaled 1.0 100);
  checki "half" 50 (Harness.Sweep.scaled 0.5 100);
  checki "floor at 1" 1 (Harness.Sweep.scaled 0.001 100)

let test_over_seeds () =
  let s = Harness.Sweep.over_seeds ~seed:10 ~trials:5 (fun seed -> float_of_int seed) in
  checki "count" 5 s.Stats.Summary.count;
  checkb "mean" true (Float.abs (s.Stats.Summary.mean -. 12.) < 1e-9);
  Alcotest.check_raises "trials=0"
    (Invalid_argument "Sweep.collect_seeds: trials must be >= 1") (fun () ->
      ignore (Harness.Sweep.over_seeds ~seed:1 ~trials:0 (fun _ -> 0.)))

let test_fit_lines () =
  let sizes = [| 16.; 256.; 4096. |] in
  let values = [| 4.; 8.; 12. |] in
  let lines =
    Harness.Sweep.fit_lines ~models:[ Stats.Regression.Log ] ~sizes ~values
  in
  checki "one line per model" 1 (List.length lines);
  checkb "mentions model" true
    (let line = List.hd lines in
     String.length line > 0)

(* ------------------------------------------------------------------ *)
(* Registry and experiments *)

let test_registry_complete () =
  Alcotest.(check (list string))
    "ids in order"
    [
      "t1"; "t2"; "t3"; "t4"; "t5"; "t6"; "t7"; "t8"; "t9"; "t10"; "t11";
      "t12"; "t13"; "t14"; "t15"; "t16"; "t17"; "t18"; "f1"; "f2"; "b2";
      (* the large-n decade sweeps ride behind Registry.all *)
      "t1l"; "t5l";
    ]
    (List.map
       (fun e -> e.Harness.Experiment.id)
       (Harness.Registry.all @ Harness.Registry.large))

let test_registry_find () =
  (match Harness.Registry.find "T5" with
  | Some e -> checks "case insensitive" "t5" e.Harness.Experiment.id
  | None -> Alcotest.fail "t5 missing");
  checkb "unknown" true (Harness.Registry.find "zzz" = None)

let test_experiments_have_claims () =
  List.iter
    (fun e ->
      checkb
        (Printf.sprintf "%s has title and claim" e.Harness.Experiment.id)
        true
        (String.length e.Harness.Experiment.title > 0
        && String.length e.Harness.Experiment.claim > 0))
    Harness.Registry.all

(* Smoke-run the cheap experiments end to end at tiny scale, with tables
   swallowed; asserts they complete without exceptions and emit at least
   one table each. *)
let test_experiments_smoke () =
  let tables = ref 0 in
  let ctx =
    {
      Harness.Experiment.seed = 1;
      trials = 2;
      scale = 0.05;
      emit_table = (fun ~title:_ _ -> incr tables);
      log = (fun _ -> ());
    }
  in
  List.iter
    (fun id ->
      match Harness.Registry.find id with
      | Some e ->
        let before = !tables in
        Harness.Experiment.run e ctx;
        checkb (Printf.sprintf "%s emitted a table" id) true (!tables > before)
      | None -> Alcotest.failf "experiment %s missing" id)
    [ "t3"; "t7"; "t8"; "t9"; "t11"; "t12"; "f1" ]

(* A Trials body run serially: every job once, in list order, with seed
   ctx.seed + trial; [tables] sees the results in the same order. *)
let test_trials_run () =
  let ran = ref [] in
  let job (sweep_point, trial) =
    {
      Harness.Experiment.sweep_point;
      point_label = "p";
      trial;
      params = [];
      run_job =
        (fun ~seed ->
          ran := (sweep_point, trial, seed) :: !ran;
          [ ("v", float_of_int ((10 * sweep_point) + trial)) ]);
    }
  in
  let order = [ (1, 0); (0, 2); (0, 0); (1, 1) ] in
  let seen = ref [] in
  let fake body =
    { Harness.Experiment.id = "fake"; title = "fake"; claim = "fake"; body }
  in
  let ctx =
    {
      (Harness.Experiment.default_ctx ~seed:100 ~trials:3 ()) with
      Harness.Experiment.emit_table = (fun ~title:_ _ -> ());
      log = ignore;
    }
  in
  Harness.Experiment.run
    (fake
       (Harness.Experiment.Trials
          {
            jobs = (fun _ -> List.map job order);
            tables =
              (fun _ results ->
                seen :=
                  List.map
                    (fun ((j : Harness.Experiment.job), values) ->
                      (j.sweep_point, j.trial, List.assoc "v" values))
                    results);
          }))
    ctx;
  Alcotest.(check (list (triple int int int)))
    "each job once, in list order, seed = ctx.seed + trial"
    [ (1, 0, 100); (0, 2, 102); (0, 0, 100); (1, 1, 101) ]
    (List.rev !ran);
  Alcotest.(check (list (triple int int (float 0.))))
    "tables get the results in job order"
    [ (1, 0, 10.); (0, 2, 2.); (0, 0, 0.); (1, 1, 11.) ]
    !seen;
  Alcotest.check_raises "a raising job propagates" (Failure "boom") (fun () ->
      Harness.Experiment.run
        (fake
           (Harness.Experiment.Trials
              {
                jobs =
                  (fun _ ->
                    [
                      {
                        (job (0, 0)) with
                        Harness.Experiment.run_job =
                          (fun ~seed:_ -> failwith "boom");
                      };
                    ]);
                tables = (fun _ _ -> Alcotest.fail "tables ran");
              }))
        ctx)

(* T9's and T12's rendered output at trials = 2, scale = 0.05, as the
   serial measuring loops printed it before the tables were derived from
   the job grain: any change of order, rounding or averaging fails. *)
let pinned_t9 =
  [
    "";
    "T9: namespace slack epsilon vs cost, n=205";
    "epsilon    m/n  paper t0  max steps  total/n  backups";
    "-------  -----  --------  ---------  -------  -------";
    "   0.10  1.102       915    1125.00   838.64       59";
    "   0.25  1.254       304     392.50   233.27       21";
    "   0.50  1.502       129     133.50    67.38        0";
    "   1.00  2.000        53      54.00     4.41        0";
    "   2.00  3.000        21       5.50     1.40        0";
  ]

let pinned_t12 =
  [
    "";
    "T12: per-process step tail, n=205, 50 runs (10250 process samples)";
    "threshold j  P[steps > j]  batch analogy 2^-(2^i)";
    "-----------  ------------  ----------------------";
    "          2      2.76e-01                       -";
    "          3      1.82e-01                2.50e-01";
    "          4      2.90e-02                6.25e-02";
    "          5      1.27e-03                3.91e-03";
    "";
    "T12: distribution of the per-run worst process";
    "statistic of run max  value  95% bootstrap CI";
    "--------------------  -----  ----------------";
    "median                 5.00  [5.00, 5.00]    ";
    "p95                    6.00  [6.00, 6.00]    ";
    "max                    6.00  [6.00, 6.00]    ";
    "mean                   5.24  [5.12, 5.36]    ";
    "T12: runs exceeding the deterministic phase budget t0+kappa-1+beta = 8: 0 of 50 (backup-phase events; Theorem 4.1 predicts ~0).";
  ]

(* T7's and T8's rendered output at trials = 2, scale = 0.05, captured
   from the Hashtbl-backed greedy adversary: they run greedy, greedy with
   random crashes and the crash sweep, so an adversary change that alters
   a schedule fails here. *)
let pinned_t7 =
  [
    "";
    "T7: ReBatching (t0=3) under each adversary, n=26";
    "adversary         max steps  avg steps  total  unique";
    "----------------  ---------  ---------  -----  ------";
    "random                 4.50       1.96     51  yes   ";
    "round-robin            4.50       1.88     49  yes   ";
    "layered                4.00       1.88     49  yes   ";
    "greedy                 4.00       2.00     52  yes   ";
    "sequential             5.00       2.00     52  yes   ";
    "greedy+crash0.25       4.00       1.80     36  yes   ";
  ]

let pinned_t8 =
  [
    "";
    "T8: crash tolerance, ReBatching, n=13";
    "crash fraction  crashed (mean)  survivor max steps  max name  unique  progress";
    "--------------  --------------  ------------------  --------  ------  --------";
    "          0.00             0.0                9.50        12  yes     yes     ";
    "          0.10             1.0                5.50        12  yes     yes     ";
    "          0.25             3.0                3.00        12  yes     yes     ";
    "          0.50             6.0                2.00        12  yes     yes     ";
    "          0.75             9.0                1.50        12  yes     yes     ";
    "          0.90            11.0                1.50        10  yes     yes     ";
    "          0.92            12.0                1.00         6  yes     yes     ";
    "";
    "T8: crash tolerance, AdaptiveReBatching, n=13";
    "crash fraction  crashed (mean)  survivor max steps  max name  unique  progress";
    "--------------  --------------  ------------------  --------  ------  --------";
    "          0.00             0.0              112.50        18  yes     yes     ";
    "          0.10             1.0              112.50        19  yes     yes     ";
    "          0.25             3.0              111.50        19  yes     yes     ";
    "          0.50             6.0              107.00         9  yes     yes     ";
    "          0.75             9.0               54.00         6  yes     yes     ";
    "          0.90            11.0                1.50         1  yes     yes     ";
    "          0.92            12.0                1.00         0  yes     yes     ";
  ]

let check_pinned pins =
  List.iter
    (fun (id, expected) ->
      let buf = Buffer.create 1024 in
      let ctx =
        {
          Harness.Experiment.seed = 1;
          trials = 2;
          scale = 0.05;
          emit_table =
            (fun ~title table ->
              Buffer.add_string buf
                ("\n" ^ title ^ "\n" ^ Harness.Table.render table));
          log = (fun line -> Buffer.add_string buf (line ^ "\n"));
        }
      in
      match Harness.Registry.find id with
      | None -> Alcotest.failf "experiment %s missing" id
      | Some e ->
        Harness.Experiment.run e ctx;
        Alcotest.(check (list string))
          (id ^ " output") (expected @ [ "" ])
          (String.split_on_char '\n' (Buffer.contents buf)))
    pins

let test_pinned_tables () = check_pinned [ ("t9", pinned_t9); ("t12", pinned_t12) ]

let test_pinned_adversary_tables () =
  check_pinned [ ("t7", pinned_t7); ("t8", pinned_t8) ]

let qcheck_csv_roundtrip_shape =
  QCheck.Test.make ~name:"csv has one line per row plus header" ~count:100
    QCheck.(list (pair (string_of_size (Gen.int_range 0 10)) small_int))
    (fun rows ->
      let t =
        Harness.Table.create
          ~columns:[ ("a", Harness.Table.Left); ("b", Harness.Table.Right) ]
      in
      List.iter
        (fun (s, i) ->
          (* newlines inside cells are legal CSV but break the line count *)
          let s = String.map (fun c -> if c = '\n' || c = '\r' then '_' else c) s in
          Harness.Table.add_row t [ s; string_of_int i ])
        rows;
      let csv = Harness.Table.to_csv t in
      let lines = String.split_on_char '\n' csv in
      (* trailing newline yields one empty final element *)
      List.length lines = List.length rows + 2)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "harness.table",
      [
        tc "counts" `Quick test_table_counts;
        tc "render alignment" `Quick test_table_render_alignment;
        tc "markdown" `Quick test_table_markdown;
        tc "csv escaping" `Quick test_table_csv_escaping;
        tc "invalid" `Quick test_table_invalid;
        tc "cell formatters" `Quick test_cell_formatters;
        QCheck_alcotest.to_alcotest qcheck_csv_roundtrip_shape;
      ] );
    ( "harness.sweep",
      [
        tc "geometric sizes" `Quick test_geometric_sizes;
        tc "scaled" `Quick test_scaled;
        tc "over seeds" `Quick test_over_seeds;
        tc "fit lines" `Quick test_fit_lines;
      ] );
    ( "harness.registry",
      [
        tc "complete" `Quick test_registry_complete;
        tc "find" `Quick test_registry_find;
        tc "claims present" `Quick test_experiments_have_claims;
        tc "experiments smoke" `Slow test_experiments_smoke;
      ] );
    ( "harness.experiment",
      [
        tc "trials run order" `Quick test_trials_run;
        tc "pinned t9 t12 tables" `Quick test_pinned_tables;
        tc "pinned t7 t8 tables" `Quick test_pinned_adversary_tables;
      ] );
  ]
