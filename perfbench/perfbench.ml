(* perfbench: one workload of the repository's benchmark per run.

     perfbench --workload W --seed N --seconds S --trace 0|1 --daemon EXE

   Run from the repository root.  With [--trace 0] it measures the
   workload's end-to-end metrics; with [--trace 1] it records spans
   around every layer call and reports the per-layer ledger instead.
   The last line of standard output is the result object; the exit code
   is 0 only when every correctness check passed.  [--pin] recomputes
   the pinned step counts of the sim-sweep trials (pins.json). *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let us_of_s s = s *. 1e6
let ns_of_s s = s *. 1e9

let time f =
  let t0 = Stat.now () in
  let r = f () in
  (Stat.now () -. t0, r)

(* ------------------------------------------------------------------ *)
(* End-to-end, tracing off *)

(* Set-up is repeated and its median reported, so one slow page-fault
   burst does not decide it. *)
let setup_repeats = 11

(* Host contention on this class of machine comes in stretches of
   seconds to tens of seconds that slow every instruction by up to about
   2x (CPU time equals wall time and no steal is recorded, so neither
   clock filters it out).  Timings are therefore taken as many short
   samples spread over the whole run and summarised by their median,
   which a slow stretch covering less than half of the run does not
   move. *)
let sim_sweep ~seed ~seconds =
  let pins = Sim_sweep.load_pins () in
  let dense = ref None in
  let setups =
    List.init setup_repeats (fun _ ->
        let t, h = time Sim_sweep.setup in
        dense := Some h;
        t)
  in
  let dense = Option.get !dense in
  let parts =
    [ Sim_sweep.dense_part dense; Sim_sweep.adversary_part ();
      Sim_sweep.sparse_part () ]
  in
  let runs = Sim_sweep.run_rounds ~pins ~seed ~budget:seconds parts in
  let outs = List.map fst runs in
  let attempted = List.fold_left (fun a o -> a + o.Sim_sweep.attempted) 0 outs in
  let failed = List.fold_left (fun a o -> a + o.Sim_sweep.failed) 0 outs in
  let named =
    List.fold_left
      (fun a o ->
        List.fold_left (fun a t -> a + t.Sim_sweep.counts.named) a o.Sim_sweep.trials)
      0 outs
  in
  (* Per part and round: wall time per step and per named process. *)
  let per f rounds =
    List.map
      (fun b ->
        List.fold_left (fun a t -> a +. t.Sim_sweep.wall) 0. b
        /. float_of_int (List.fold_left (fun a t -> a + f t.Sim_sweep.counts) 0 b))
      rounds
  in
  let step_s = List.map (fun (_, r) -> per (fun c -> c.Sim_sweep.total) r) runs in
  let name_s = List.map (fun (_, r) -> per (fun c -> c.Sim_sweep.named) r) runs in
  List.iter2
    (fun (o, _) ns ->
      Printf.eprintf "perfbench: %s: %d trial(s), ns/step by round %s\n%!"
        o.Sim_sweep.part.Sim_sweep.label (List.length o.Sim_sweep.trials)
        (String.concat " " (List.map (fun s -> Printf.sprintf "%.1f" (ns_of_s s)) ns)))
    runs step_s;
  ( attempted,
    failed,
    [
      m "setup_s" "s" (Stat.median setups);
      m "peak_rss_mb" "MB" (Stat.proc_status_mb "VmHWM");
      m "ops_per_s" "1/s" (Stat.geomean (List.map (fun s -> 1. /. Stat.median s) step_s));
      m "op_latency_us" "us" (Stat.geomean (List.map (fun s -> us_of_s (Stat.median s)) name_s));
      m "served_frac" "ratio" (float_of_int named /. float_of_int attempted);
    ] )

(* The service is measured in one-second windows against a few daemons
   in turn, each warmed up first (checked but not measured): how the
   daemon's two domains and the generator share the two CPUs is settled
   per daemon and moves its latency as a whole, so no single daemon
   decides a run. *)
let window_s = 1.
let warmup_s = 1.
let daemons = 8

type window = { ops : float; p50 : float; samples : int; served : float }

let window (a : Svc.audit) cfg ~seed ~duration =
  Option.map
    (fun (r : Service.Load_gen.result) ->
      {
        ops = r.goodput;
        p50 = Stat.hdr_quantile r.latency 0.5 /. 1e3;
        samples = Stats.Hdr.count r.latency;
        served = float_of_int r.acquired /. float_of_int (max 1 r.offered);
      })
    (Svc.load a cfg ~seed ~duration)

(* Warm [d] up, measure [count] windows against it and stop it; the
   windows and the daemon's peak RSS, or [None] if a window failed. *)
let segment a cfg ~seed ~count d =
  ignore (window a cfg ~seed ~duration:warmup_s);
  let ws =
    List.filter_map
      (fun w -> window a cfg ~seed:(seed + 1 + w) ~duration:window_s)
      (List.init count Fun.id)
  in
  let hwm = Svc.daemon_hwm_mb d in
  Svc.check_exit a ~what:"drain" (Svc.stop d);
  Printf.eprintf "perfbench: %s daemon: window p50 us %s; %d samples\n%!"
    cfg.Svc.label
    (String.concat " " (List.map (fun w -> Printf.sprintf "%.1f" w.p50) ws))
    (List.fold_left (fun acc w -> acc + w.samples) 0 ws);
  if List.length ws < count then None else Some (ws, hwm)

let service cfg ~exe ~seed ~seconds =
  let a = Svc.audit () in
  let first, boots = Svc.boot a ~exe ~seed ~boots:setup_repeats cfg in
  let count = max 1 (int_of_float (seconds /. window_s) / daemons) in
  let segs =
    List.init daemons (fun i ->
        let seed = seed + (1000 * i) in
        let d =
          if i = 0 then first else fst (Svc.boot a ~exe ~seed ~boots:1 cfg)
        in
        Option.bind d (segment a cfg ~seed ~count))
  in
  let metrics =
    if List.mem None segs then []
    else
      let segs = List.filter_map Fun.id segs in
      let ws = List.concat_map fst segs in
      let med f = Stat.median (List.map f ws) in
      [
        m "setup_s" "s" (Stat.median boots);
        m "peak_rss_mb" "MB" (Stat.median (List.map snd segs));
        m "ops_per_s" "1/s" (med (fun w -> w.ops));
        m "op_latency_us" "us" (med (fun w -> w.p50));
        m "served_frac" "ratio" (med (fun w -> w.served));
      ]
  in
  (a.Svc.attempted, a.Svc.failed, metrics)

(* ------------------------------------------------------------------ *)
(* The traced per-layer ledger *)

let selfs name = Span.selfs_of name
let med_ns name = ns_of_s (Stat.median (selfs name))
let q_ns name q = ns_of_s (Stat.quantile (selfs name) q)

let ledger_sim ~seed =
  let pins = Sim_sweep.load_pins () in
  let setups =
    List.init 3 (fun _ -> fst (time (fun () -> Span.wrap "fast_core.setup" Sim_sweep.setup)))
  in
  let run ~trials ~budget p =
    Sim_sweep.run_part ~min_trials:trials ~max_trials:trials ~pins ~seed ~budget p
  in
  let dense = run ~trials:1 ~budget:0. (Sim_sweep.dense_part (Sim_sweep.setup ())) in
  let sparse = run ~trials:2 ~budget:0. (Sim_sweep.sparse_part ()) in
  let adversary =
    Sim_sweep.run_part ~pins ~seed ~budget:1. (Sim_sweep.adversary_part ())
  in
  let per_step f o =
    List.fold_left (fun a t -> a +. f t) 0. o.Sim_sweep.trials
    /. float_of_int (Sim_sweep.steps o)
  in
  let ns o = per_step (fun t -> ns_of_s t.Sim_sweep.wall) o in
  let first o = (List.hd o.Sim_sweep.trials).Sim_sweep.counts in
  let outs = [ dense; sparse; adversary ] in
  ( List.fold_left (fun a o -> a + o.Sim_sweep.attempted) 0 outs,
    List.fold_left (fun a o -> a + o.Sim_sweep.failed) 0 outs,
    [
      m "fast_core.setup_s" "s" (Stat.median setups);
      m "fast_core.dense.ns_per_step" "ns" (ns dense);
      m "fast_core.dense.minor_words_per_step" "words"
        (per_step (fun t -> t.Sim_sweep.minor) dense);
      m "fast_core.dense.major_words_per_step" "words"
        (per_step (fun t -> t.Sim_sweep.major) dense);
      m "fast_core.dense.total_steps" "count" (float_of_int (first dense).total);
      m "fast_core.dense.max_steps" "count" (float_of_int (first dense).max_steps);
      m "location_space.sparse.ns_per_step" "ns" (ns sparse);
      m "location_space.sparse.major_words_per_step" "words"
        (per_step (fun t -> t.Sim_sweep.major) sparse);
      m "location_space.sparse.rss_mb_per_trial" "MB"
        (Stat.median (List.map (fun t -> t.Sim_sweep.rss_mb) sparse.Sim_sweep.trials));
      m "location_space.sparse.high_water_mark" "count" (float_of_int (first sparse).hwm);
      m "location_space.sparse.probes" "count" (float_of_int (first sparse).total);
      m "scheduler.adversary.ns_per_step" "ns" (ns adversary);
      m "scheduler.adversary.minor_words_per_step" "words"
        (per_step (fun t -> t.Sim_sweep.minor) adversary);
      m "scheduler.adversary.total_steps" "count"
        (float_of_int (first adversary).total);
    ] )

let ledger_svc ~exe ~seed ~seconds =
  let a = Svc.audit () in
  let pool = Ledger.serve_sequence a ~seed ~requests:5_000 in
  Ledger.overload_observe ~seed ~calls:5_000;
  let bytes_per_record = Ledger.journal_appends a ~records:400 in
  let phase = Float.max 1. (seconds /. 4.) in
  let steady =
    match Svc.boot a ~exe ~seed ~boots:1 Svc.steady with
    | None, _ -> None
    | Some d, _ ->
      let rtts = Svc.round_trips a ~count:2_000 in
      (* Untraced and traced runs of the generator alternate, so neither
         side always meets the warmer daemon. *)
      let runs =
        List.init 4 (fun i ->
            let drive () =
              Svc.drive a ~rate:Svc.steady.Svc.rate ~seed:(seed + 1 + i)
                ~duration:(phase /. 2.)
            in
            if i mod 2 = 0 then (false, Span.paused drive) else (true, drive ()))
      in
      Svc.check_exit a ~what:"steady drain" (Svc.stop d);
      let side traced = List.filter_map (fun (t, r) -> if t = traced then Some r else None) runs in
      Some (rtts, side false, side true)
  in
  let durable_goodput =
    match Svc.boot a ~exe ~seed ~boots:1 Svc.durable with
    | None, _ -> nan
    | Some d, _ ->
      let granted = Svc.closed_loop a Svc.durable ~seed:(seed + 4) ~duration:phase in
      Svc.check_exit a ~what:"durable drain" (Svc.stop d);
      float_of_int granted /. phase
  in
  let overdrive =
    match Svc.boot a ~exe ~seed ~boots:1 Svc.overdrive with
    | None, _ -> None
    | Some d, _ ->
      let r = Svc.load a Svc.overdrive ~seed:(seed + 3) ~duration:phase in
      let peak =
        match Svc.daemon_stats () with
        | Ok o -> float_of_int (Jsonu.int_ o "queue_peak")
        | Error e ->
          Svc.breach a ~count:1 "overdrive stats: %s" e;
          nan
      in
      Svc.check_exit a ~what:"overdrive drain" (Svc.stop d);
      Option.map (fun r -> (r, peak)) r
  in
  let shard_p50 = q_ns "shard.acquire" 0.5 in
  let in_process =
    [
      ("wire.encode (request + response)", 2. *. med_ns "wire.encode");
      ("wire.decode", med_ns "wire.decode");
      ("session.feed", med_ns "session.feed");
      ("session.ledger", med_ns "session.ledger");
      ("shard.acquire", shard_p50);
      ("lease.grant", med_ns "lease.grant");
    ]
  in
  let metrics =
    [
      m "wire.encode_ns" "ns" (med_ns "wire.encode");
      m "wire.decode_ns" "ns" (med_ns "wire.decode");
      m "wire.words_per_frame" "words" (Ledger.words_per_frame ~frames:100_000);
      m "session.feed_ns" "ns" (med_ns "session.feed");
      m "session.ledger_ns" "ns" (med_ns "session.ledger");
      m "shard.acquire_ns.p50" "ns" shard_p50;
      m "shard.acquire_ns.p99" "ns" (q_ns "shard.acquire" 0.99);
      m "shard.release_ns" "ns" (med_ns "shard.release");
      m "shard.probes_per_acquire" "count"
        (float_of_int (Service.Shard.probes pool)
        /. float_of_int (max 1 (Service.Shard.acquires pool)));
      m "shard.acquire_failures" "count"
        (float_of_int (Service.Shard.failures pool));
      m "lease.grant_ns" "ns" (med_ns "lease.grant");
      m "lease.release_ns" "ns" (med_ns "lease.release");
      m "overload.observe_ns" "ns" (med_ns "overload.observe");
      m "journal.append_us.p50" "us" (us_of_s (Stat.quantile (selfs "journal.append") 0.5));
      m "journal.append_us.p99" "us" (us_of_s (Stat.quantile (selfs "journal.append") 0.99));
      m "journal.bytes_per_record" "bytes" bytes_per_record;
      m "server.durable_goodput_ops" "1/s" durable_goodput;
    ]
    @ (match steady with
      | None -> []
      | Some (rtts, untraced, traced) ->
        let rtt_p50 = us_of_s (Stat.median rtts) in
        let layers_us =
          List.fold_left (fun acc (_, ns) -> acc +. (ns /. 1e3)) 0. in_process
        in
        let residual = rtt_p50 -. layers_us in
        let p50 runs =
          Stat.median
            (List.map (fun r -> Stat.hdr_quantile r.Svc.latency 0.5) runs)
        in
        let merged f =
          let h = Stats.Hdr.create () in
          List.iter (fun r -> Stats.Hdr.merge ~into:h (f r)) traced;
          h
        in
        let lateness = merged (fun r -> r.Svc.lateness) in
        let latency = merged (fun r -> r.Svc.latency) in
        print_endline
          (Jsonu.to_string
             (Jsonu.Obj
                [
                  ( "acquire_round_trip_us",
                    Jsonu.Obj
                      (("client.rtt_us.p50", Jsonu.Num rtt_p50)
                       :: List.map (fun (k, ns) -> (k, Jsonu.Num (ns /. 1e3))) in_process
                      @ [ ("server.residual_us", Jsonu.Num residual) ]) );
                ]));
        [
          m "client.rtt_us.p50" "us" rtt_p50;
          m "client.rtt_us.p99" "us" (us_of_s (Stat.quantile rtts 0.99));
          m "server.residual_us" "us" residual;
          m "loadgen.lateness_us.p50" "us" (Stat.hdr_quantile lateness 0.5 /. 1e3);
          m "loadgen.lateness_us.p99" "us" (Stat.hdr_quantile lateness 0.99 /. 1e3);
          m "loadgen.acquire_p90_us" "us" (Stat.hdr_quantile latency 0.9 /. 1e3);
          m "loadgen.acquire_p99_us" "us" (Stat.hdr_quantile latency 0.99 /. 1e3);
          m "trace.overhead_frac" "ratio" ((p50 traced /. p50 untraced) -. 1.);
        ])
    @
    match overdrive with
    | None -> []
    | Some ((r : Service.Load_gen.result), peak) ->
      let offered = float_of_int (max 1 r.offered) in
      [
        m "server.shed_busy_frac" "ratio" (float_of_int r.shed /. offered);
        m "server.shed_expired_frac" "ratio" (float_of_int r.expired /. offered);
        m "server.queue_peak" "count" peak;
      ]
  in
  (a.Svc.attempted, a.Svc.failed, metrics)

let ledger ~exe ~seed ~seconds =
  Span.enable ();
  let a1, f1, sim = ledger_sim ~seed in
  let a2, f2, svc = ledger_svc ~exe ~seed ~seconds in
  (a1 + a2, f1 + f2, sim @ svc)

(* ------------------------------------------------------------------ *)
(* Main *)

let workloads = [ "sim-sweep"; "svc-steady" ]

let result_line ~correct ~attempted ~failed metrics =
  Jsonu.to_string
    (Jsonu.Obj
       [
         ("correct", Jsonu.Bool correct);
         ("attempted", Jsonu.Int attempted);
         ("failed", Jsonu.Int failed);
         ( "metrics",
           Jsonu.Obj
             (List.map
                (fun mt ->
                  ( mt.name,
                    Jsonu.Obj
                      [ ("value", Jsonu.Num mt.value); ("unit", Jsonu.Str mt.unit_) ] ))
                metrics) );
       ])

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and daemon = ref "_build/default/bin/renamed.exe" in
  let pin = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer ledger with spans");
      ("--daemon", Arg.Set_string daemon, "EXE the renamed binary");
      ("--pin", Arg.Set pin, " recompute perfbench/pins.json and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if !pin then begin
    Sim_sweep.write_pins
      [ Sim_sweep.dense_part (Sim_sweep.setup ()); Sim_sweep.sparse_part ();
        Sim_sweep.adversary_part () ];
    exit 0
  end;
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "perfbench: unknown workload %S\n" !workload;
    exit 2
  end;
  (try Unix.mkdir Svc.run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  print_endline
    (Jsonu.to_string
       (Jsonu.Obj
          [
            ("machine", Stat.machine ~journal_dir:Svc.run_dir);
            ("workload", Jsonu.Str !workload);
            ("seed", Jsonu.Int !seed);
            ("seconds", Jsonu.Num !seconds);
            ("trace", Jsonu.Int !trace);
          ]));
  let exe = !daemon and seed = !seed and seconds = !seconds in
  let attempted, failed, metrics =
    try
      if !trace = 1 then ledger ~exe ~seed ~seconds
      else
        match !workload with
        | "sim-sweep" -> sim_sweep ~seed ~seconds
        | _ -> service Svc.steady ~exe ~seed ~seconds
    with e ->
      Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
      (1, 1, [])
  in
  if !trace = 1 then begin
    let path =
      Filename.concat Svc.run_dir
        (Printf.sprintf "trace-%s.tsv" !workload)
    in
    Span.write path;
    Printf.eprintf "perfbench: %d spans written to %s\n%!" (Span.count ()) path
  end;
  let unmeasured =
    List.filter (fun mt -> not (Float.is_finite mt.value)) metrics
  in
  List.iter
    (fun mt -> Printf.eprintf "perfbench: %s was not measured\n%!" mt.name)
    unmeasured;
  let failed = failed + List.length unmeasured in
  let correct = failed = 0 && metrics <> [] in
  print_endline
    (result_line ~correct ~attempted:(max 1 attempted) ~failed metrics);
  exit (if correct then 0 else 1)
