(* The reproduction batch: three parts, each a fixed-shape trial,
   repeated in interleaved rounds for the length of the run.

   - dense: ReBatching (t0 = 3) on the streaming fast core at n = 10^7,
     one reused handle with the location space preallocated (t1l shape);
   - sparse: adaptive ReBatching (t0 = 3) streaming at k = 131072, a
     fresh handle per trial as [Exp_large.measure] builds it (t5l shape);
     this is where the 64 KiB sparse chunks of [Location_space]
     materialise;
   - adversary: the closure ReBatching body (t0 = 3, n = 512) under the
     effects scheduler and [Adversary.greedy_collision] (T7 shape).

   Every trial's seed comes from a pinned table (pins.json) that also
   records its exact step, step-maximum, high-water and name counts; a
   trial whose counts differ, or in which a process ends without a
   unique name, is a failed trial. *)

type counts = { total : int; max_steps : int; hwm : int; named : int }

type trial = {
  wall : float;  (* seconds inside the timed call *)
  counts : counts;
  names_ok : bool;  (* every process named, names unique / in range *)
  minor : float;  (* words allocated in the timed call *)
  major : float;
  rss_mb : float;  (* resident-set growth across the timed call *)
}

type part = {
  label : string;
  procs : int;
  seed_base : int;
  table_size : int;  (* entries pinned *)
  per_round : int;  (* trials in one round of an interleaved run *)
  run_trial : seed:int -> trial;
}

let dense_n = 10_000_000
let sparse_k = 131_072
let adversary_n = 512

(* About as long as one sparse trial. *)
let adversary_per_round = 400

let words () =
  let minor, _, major = Gc.counters () in
  (minor, major)

(* Time [f] and meter its allocation; [f] returns the counts. *)
let timed f =
  let rss0 = Stat.proc_status_mb "VmRSS" in
  let m0, j0 = words () in
  let t0 = Stat.now () in
  let counts, names_ok = f () in
  let t1 = Stat.now () in
  let m1, j1 = words () in
  let rss1 = Stat.proc_status_mb "VmRSS" in
  {
    wall = t1 -. t0;
    counts;
    names_ok;
    minor = m1 -. m0;
    major = j1 -. j0;
    rss_mb = rss1 -. rss0;
  }

let dense_spec () =
  Harness.Substrate.rebatching (Renaming.Rebatching.make ~t0:3 ~n:dense_n ())

let sparse_spec () =
  Harness.Substrate.adaptive (Renaming.Object_space.create ~t0:3 ())

let seq_handle spec =
  Sim.Fast_core.seq_create
    ~capacity:(Harness.Substrate.capacity spec)
    ~algo:(Harness.Substrate.fast_algo spec) ()

let seq_counts q =
  {
    total = Sim.Fast_core.seq_total_steps q;
    max_steps = Sim.Fast_core.seq_max_steps q;
    hwm = Sim.Fast_core.seq_space_used q;
    named = Sim.Fast_core.seq_named q;
  }

(* Set-up: the dense handle with its 2n-cell location space committed,
   one sparse handle, and the adversary instance. *)
let setup () =
  let dense = seq_handle (dense_spec ()) in
  ignore (Sys.opaque_identity (seq_handle (sparse_spec ())));
  ignore
    (Sys.opaque_identity (Renaming.Rebatching.make ~t0:3 ~n:adversary_n ()));
  dense

let dense_part dense =
  let cap = Harness.Substrate.capacity (dense_spec ()) in
  {
    label = "dense";
    procs = dense_n;
    seed_base = 1_000;
    table_size = 12;
    per_round = 1;
    run_trial =
      (fun ~seed ->
        timed (fun () ->
            Sim.Fast_core.seq_run dense ~seed ~n:dense_n;
            let c = seq_counts dense in
            (c, c.named = dense_n && Sim.Fast_core.seq_max_name dense < cap)));
  }

let sparse_part () =
  {
    label = "sparse";
    procs = sparse_k;
    seed_base = 2_000;
    table_size = 16;
    per_round = 1;
    run_trial =
      (fun ~seed ->
        let trial () =
          let q = seq_handle (sparse_spec ()) in
          timed (fun () ->
              Sim.Fast_core.seq_run q ~seed ~n:sparse_k;
              let c = seq_counts q in
              (c, c.named = sparse_k))
        in
        let tr = trial () in
        (* Collect the handle and its chunks before the next trial,
           outside the timed call: a handle reused across trials keeps
           every chunk it ever touched and grows. *)
        Gc.full_major ();
        tr);
  }

let adversary_part () =
  let inst = Renaming.Rebatching.make ~t0:3 ~n:adversary_n () in
  let algo env = Renaming.Rebatching.get_name env inst in
  {
    label = "adversary";
    procs = adversary_n;
    seed_base = 3_000;
    table_size = 512;
    per_round = adversary_per_round;
    run_trial =
      (fun ~seed ->
        timed (fun () ->
            let r =
              Sim.Runner.run ~adversary:Sim.Adversary.greedy_collision ~seed
                ~n:adversary_n ~algo ()
            in
            let named =
              Array.fold_left
                (fun acc o -> if Option.is_some o then acc + 1 else acc)
                0 r.Sim.Runner.names
            in
            ( {
                total = r.Sim.Runner.total_steps;
                max_steps = r.Sim.Runner.max_steps;
                hwm = r.Sim.Runner.space_used;
                named;
              },
              Sim.Runner.check_unique_names r )));
  }

(* ------------------------------------------------------------------ *)
(* Pinned counts *)

let pins_file = "perfbench/pins.json"

let counts_json c =
  Jsonu.Arr [ Jsonu.Int c.total; Jsonu.Int c.max_steps; Jsonu.Int c.hwm;
              Jsonu.Int c.named ]

let counts_of_json = function
  | Jsonu.Arr [ Jsonu.Int total; Jsonu.Int max_steps; Jsonu.Int hwm;
                Jsonu.Int named ] ->
    { total; max_steps; hwm; named }
  | _ -> raise Jsonu.Malformed

(* Recompute the table for every part: run each pinned seed once. *)
let write_pins parts =
  let table p =
    ( p.label,
      Jsonu.Obj
        [
          ("procs", Jsonu.Int p.procs);
          ("seed_base", Jsonu.Int p.seed_base);
          ( "counts",
            Jsonu.Arr
              (List.init p.table_size (fun i ->
                   let tr = p.run_trial ~seed:(p.seed_base + i) in
                   if not tr.names_ok then
                     failwith (Printf.sprintf "%s seed %d: names not ok"
                                 p.label (p.seed_base + i));
                   counts_json tr.counts)) );
        ] )
  in
  let j = Jsonu.Obj (List.map table parts) in
  let oc = open_out pins_file in
  output_string oc (Jsonu.to_string j);
  output_char oc '\n';
  close_out oc

let load_pins () =
  let text = In_channel.with_open_bin pins_file In_channel.input_all in
  match Jsonu.parse (String.trim text) with
  | Some j -> Jsonu.obj j
  | None -> failwith (pins_file ^ ": not JSON")

(* The pinned counts of [p], checked against its shape. *)
let pins_for pins p =
  let o = Jsonu.obj (List.assoc p.label pins) in
  if Jsonu.int_ o "procs" <> p.procs || Jsonu.int_ o "seed_base" <> p.seed_base
  then failwith (Printf.sprintf "%s: %s pins a different shape" pins_file p.label);
  Array.of_list (List.map counts_of_json (Jsonu.arr o "counts"))

(* ------------------------------------------------------------------ *)
(* Running a part *)

type outcome = {
  part : part;
  trials : trial list;  (* in run order *)
  attempted : int;  (* processes run *)
  failed : int;  (* processes of failed trials *)
}

(* A part being run: trial [j] of a run seeded [seed] uses pinned entry
   [(7 * seed + j) mod table_size], so a seed fixes the inputs. *)
type runner = {
  p : part;
  pinned : counts array;
  base : int;
  mutable j : int;
  mutable done_ : trial list;  (* newest first *)
  mutable lost : int;  (* processes of failed trials *)
}

let runner ~pins ~seed p =
  let pinned = pins_for pins p in
  let size = Array.length pinned in
  { p; pinned; base = ((7 * seed) mod size + size) mod size; j = 0;
    done_ = []; lost = 0 }

(* Run, check and record the next trial of [r]. *)
let next r =
  let idx = (r.base + r.j) mod Array.length r.pinned in
  let span = Span.start ~req:r.j (r.p.label ^ ".trial") in
  let tr = r.p.run_trial ~seed:(r.p.seed_base + idx) in
  Span.stop span;
  let pin = r.pinned.(idx) in
  if not (tr.names_ok && tr.counts = pin) then begin
    Printf.eprintf
      "perfbench: %s trial seed %d: counts %d/%d/%d/%d, pinned %d/%d/%d/%d%s\n%!"
      r.p.label (r.p.seed_base + idx) tr.counts.total tr.counts.max_steps
      tr.counts.hwm tr.counts.named pin.total pin.max_steps pin.hwm pin.named
      (if tr.names_ok then "" else ", names broken");
    r.lost <- r.lost + r.p.procs
  end;
  r.j <- r.j + 1;
  r.done_ <- tr :: r.done_;
  tr

let outcome r =
  { part = r.p; trials = List.rev r.done_; attempted = r.j * r.p.procs;
    failed = r.lost }

(* Run trials of [p] until [budget] seconds have passed (at least
   [min_trials], at most [max_trials]). *)
let run_part ?(min_trials = 1) ?(max_trials = max_int) ~pins ~seed ~budget p =
  let r = runner ~pins ~seed p in
  let t_end = Stat.now () +. budget in
  while r.j < max_trials && (r.j < min_trials || Stat.now () < t_end) do
    ignore (next r)
  done;
  outcome r

(* Run the parts in rounds, [p.per_round] trials of every part in turn,
   until [budget] seconds have passed: a slow stretch of the host then
   falls on every part alike instead of on whichever part was running.
   Returns each part's outcome with its trials grouped by round. *)
let run_rounds ~pins ~seed ~budget parts =
  let t_end = Stat.now () +. budget in
  let rs = List.map (fun p -> (runner ~pins ~seed p, ref [])) parts in
  let rec go () =
    List.iter
      (fun (r, rounds) ->
        rounds := List.init r.p.per_round (fun _ -> next r) :: !rounds)
      rs;
    if Stat.now () < t_end then go ()
  in
  go ();
  List.map (fun (r, rounds) -> (outcome r, List.rev !rounds)) rs

let steps o = List.fold_left (fun a t -> a + t.counts.total) 0 o.trials
let wall o = List.fold_left (fun a t -> a +. t.wall) 0. o.trials
let steps_per_s o = float_of_int (steps o) /. wall o

let per_step f o = List.map (fun t -> f t /. float_of_int t.counts.total) o.trials
