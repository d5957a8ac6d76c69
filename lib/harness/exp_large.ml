(* Large-n decade sweeps: the t1/t5 shapes pushed three more decades.

   These experiments run exclusively on the streaming fast core
   ([Sim.Fast_core.seq_run]): in unshuffled sequential order a process
   runs to completion before the next starts, so per-process state is
   O(1) and n = 10^8 fits in one location-space allocation.  The grid is
   decades [1e3 .. hi] where [hi] is [ctx.scale] times the full-sweep
   ceiling (1e8 for t1l, 1e7 for t5l) — so `--scale 0.01` is the CI
   smoke shape (top decade 1e6 / 1e5) and the committed BENCH_1.json
   baseline still has every decade a scaled-down run can produce.

   Trials attenuate with n (the top decade is minutes, not milliseconds);
   the per-point counts are part of the artifact, so the `--check` gate
   compares means over explicit trial sets.

   Jobs are one (series, n, trial) each: embarrassingly parallel,
   seed-split by [Engine.Seed_tree] through [Engine.Plan], and each job
   meters its own allocation via [Gc.minor_words] deltas around the
   measured loop — the words_per_op value is how the 0-alloc claim for
   the streaming core is enforced at every decade. *)

let log2 x = log x /. log 2.

type series = { name : string; spec_of : int -> Substrate.spec }

let t1l_hi = 100_000_000
let t5l_hi = 10_000_000
let grid_lo = 1_000

let grid ~scale ~hi =
  Sweep.geometric_sizes ~lo:grid_lo ~hi:(max grid_lo (Sweep.scaled scale hi))
    ~factor:10

(* The top decades dominate wall clock; attenuate trials there.  The
   attenuation is part of the job list, hence of the seed tree and the
   committed artifact — deterministic, not adaptive. *)
let trials_at ~trials n =
  if n >= 100_000_000 then max 1 (trials / 4)
  else if n >= 10_000_000 then max 1 (trials / 2)
  else max 1 trials

let t1l_series =
  [
    {
      name = "rebatch_paper";
      spec_of = (fun n -> Substrate.rebatching (Renaming.Rebatching.make ~n ()));
    };
    {
      name = "rebatch_t0";
      spec_of =
        (fun n -> Substrate.rebatching (Renaming.Rebatching.make ~t0:3 ~n ()));
    };
    {
      name = "uniform";
      spec_of = (fun n -> Substrate.uniform ~m:(2 * n) ~max_steps:(1000 * n));
    };
    {
      name = "cyclic";
      spec_of = (fun n -> Substrate.cyclic_scan ~m:(2 * n));
    };
  ]

(* The paper-constant adaptive variant pays t0 = 53 probes per visited
   object, which at k = 10^7 is hundreds of steps per process — the
   tuned t0 = 3 variant and the doubling baseline carry the same shape
   at a decade-sweep-compatible cost. *)
let t5l_series =
  [
    {
      name = "adaptive_t0";
      spec_of =
        (fun _n -> Substrate.adaptive (Renaming.Object_space.create ~t0:3 ()));
    };
    {
      name = "doubling";
      spec_of =
        (fun _n -> Substrate.adaptive_doubling (Renaming.Object_space.create ()));
    };
  ]

let point_label ~series ~n = Printf.sprintf "%s/n=%d" series.name n

(* One measured trial: build the streaming handle (dense location space
   preallocated to the spec's capacity), run, and report aggregates plus
   the allocation meter.  Everything before the [Gc.minor_words] window
   is setup; the window contains only [seq_run], whose loop is
   allocation-free by construction. *)
let measure ~series ~n ~seed =
  let spec = series.spec_of n in
  let q =
    Sim.Fast_core.seq_create
      ~capacity:(Substrate.capacity spec)
      ~algo:(Substrate.fast_algo spec) ()
  in
  let w0 = Gc.minor_words () in
  Sim.Fast_core.seq_run q ~seed ~n;
  let w1 = Gc.minor_words () in
  let total = Sim.Fast_core.seq_total_steps q in
  let named = Sim.Fast_core.seq_named q in
  if named <> n then
    failwith
      (Printf.sprintf "%s: %d of %d processes finished without a name"
         series.name (n - named) n);
  [
    ("max_steps", float_of_int (Sim.Fast_core.seq_max_steps q));
    ("total_steps", float_of_int total);
    ("steps_per_proc", float_of_int total /. float_of_int n);
    ("space_used", float_of_int (Sim.Fast_core.seq_space_used q));
    ("max_name", float_of_int (Sim.Fast_core.seq_max_name q));
    ("words_per_op", (w1 -. w0) /. float_of_int (max 1 total));
  ]

(* Sweep points are indexed against the FULL decade grid, not the
   scaled subset, so a decade-subset run (--max-n / --scale) derives
   the same per-job seeds as the full committed baseline: subset rows
   are bit-identical to baseline rows, and the --check bands only ever
   see real behavioral drift, never sampling noise. *)
let point_index ~hi ~series_idx ~n =
  let full_sizes = grid ~scale:1.0 ~hi in
  let rec decade_of i = function
    | [] ->
      invalid_arg
        (Printf.sprintf "Exp_large.point_index: n=%d not on the decade grid" n)
    | m :: rest -> if m = n then i else decade_of (i + 1) rest
  in
  (series_idx * List.length full_sizes) + decade_of 0 full_sizes

let jobs_of ~series_list ~hi (ctx : Experiment.ctx) =
  let sizes = grid ~scale:ctx.scale ~hi in
  Experiment.sweep ctx
    (List.concat
       (List.mapi
          (fun series_idx series ->
            List.map (fun n -> (series_idx, series, n)) sizes)
          series_list))
    ~trials:(fun (_, _, n) -> trials_at ~trials:ctx.trials n)
    ~sweep_point:(fun _ (series_idx, _, n) -> point_index ~hi ~series_idx ~n)
    ~label:(fun (_, series, n) -> point_label ~series ~n)
    ~params:(fun (_, _, n) -> [ ("n", float_of_int n) ])
    (fun (_, series, n) ~seed -> measure ~series ~n ~seed)

(* One table: mean worst-case steps per decade per series. *)
let tables_with ~series_list ~hi ~tag (ctx : Experiment.ctx) results =
  let sizes = grid ~scale:ctx.scale ~hi in
  let table =
    Table.create
      ~columns:
        (("n", Table.Right)
        :: List.map (fun s -> (s.name, Table.Right)) series_list
        @ [ ("loglog2 n", Table.Right); ("log2 n", Table.Right) ])
  in
  let first_series_points = ref [] in
  List.iter
    (fun n ->
      let means =
        List.mapi
          (fun series_idx _ ->
            Experiment.mean results
              ~point:(point_index ~hi ~series_idx ~n)
              "max_steps")
          series_list
      in
      (match means with
      | mean :: _ -> first_series_points := (n, mean) :: !first_series_points
      | [] -> ());
      let fn = float_of_int n in
      Table.add_row table
        (Table.cell_int n
        :: List.map Table.cell_float means
        @ [
            Table.cell_float (log2 (log2 fn)); Table.cell_float (log2 fn);
          ]))
    sizes;
  ctx.emit_table
    ~title:
      (Printf.sprintf
         "%s: worst per-process steps by decade (streaming fast core, mean \
          over attenuated trials)"
         tag)
    table;
  let data = List.rev !first_series_points in
  let sizes_arr = Array.of_list (List.map (fun (n, _) -> float_of_int n) data) in
  let values = Array.of_list (List.map snd data) in
  if Array.length sizes_arr >= 2 then begin
    ctx.log (Printf.sprintf "%s fits, %s:" tag (List.hd series_list).name);
    List.iter ctx.log
      (Sweep.fit_lines
         ~models:[ Stats.Regression.Log_log; Stats.Regression.Log ]
         ~sizes:sizes_arr ~values)
  end

let t1l =
  {
    Experiment.id = "t1l";
    title = "Large-n step complexity by decade (streaming fast core)";
    claim =
      "Theorem 4.1 across three more decades: ReBatching's worst per-process \
       steps stay log log n + O(1) up to n = 10^8 while uniform probing \
       climbs with log n";
    body =
      Experiment.Trials
        {
          jobs = jobs_of ~series_list:t1l_series ~hi:t1l_hi;
          tables = tables_with ~series_list:t1l_series ~hi:t1l_hi ~tag:"T1L";
        };
  }

let t5l =
  {
    Experiment.id = "t5l";
    title = "Large-k adaptive renaming by decade (streaming fast core)";
    claim =
      "Section 5 at scale: adaptive ReBatching's steps grow like (log log \
       k)^2 and its namespace stays O(k) out to k = 10^7";
    body =
      Experiment.Trials
        {
          jobs = jobs_of ~series_list:t5l_series ~hi:t5l_hi;
          tables = tables_with ~series_list:t5l_series ~hi:t5l_hi ~tag:"T5L";
        };
  }
