(* The kernel microbench artifact (kind "bench"): its types, codec,
   rendering and gates.  The timed kernels themselves live in
   bin/bench_kernels.ml.

   words/op and the fast-vs-effects speedup are the gated quantities;
   absolute ns/op is machine-dependent and therefore informational
   only. *)

type kernel = {
  name : string;
  n : int;  (* problem size: process count, or draws per run for PRNG kernels *)
  runs : int;
  ops : int;
  ns_per_op : float;
  words_per_op : float;  (* minor words allocated per op *)
}

type speedup = { pair : string; speedup : float }

type suite = {
  seed : int;
  scale : float;
  kernels : kernel list;
  speedups : speedup list;
}

(* ------------------------------------------------------------------ *)
(* Codec *)

let name = "bench"

let encode s =
  let kernel k =
    Jsonu.Obj
      [
        ("name", Jsonu.Str k.name);
        ("n", Jsonu.Int k.n);
        ("runs", Jsonu.Int k.runs);
        ("ops", Jsonu.Int k.ops);
        ("ns_per_op", Jsonu.Num k.ns_per_op);
        ("words_per_op", Jsonu.Num k.words_per_op);
      ]
  in
  let speedup s =
    Jsonu.Obj [ ("pair", Jsonu.Str s.pair); ("speedup", Jsonu.Num s.speedup) ]
  in
  Artifact.line ~name ~schema:1
    [
      ("seed", Jsonu.Int s.seed);
      ("scale", Jsonu.Num s.scale);
      ("kernels", Jsonu.Arr (List.map kernel s.kernels));
      ("speedups", Jsonu.Arr (List.map speedup s.speedups));
    ]

let decode fields =
  let kernel j =
    let f = Jsonu.obj j in
    {
      name = Jsonu.str f "name";
      n = Jsonu.int_ f "n";
      runs = Jsonu.int_ f "runs";
      ops = Jsonu.int_ f "ops";
      ns_per_op = Jsonu.num f "ns_per_op";
      words_per_op = Jsonu.num f "words_per_op";
    }
  in
  let speedup j =
    let f = Jsonu.obj j in
    { pair = Jsonu.str f "pair"; speedup = Jsonu.num f "speedup" }
  in
  {
    seed = Jsonu.int_ fields "seed";
    scale = Jsonu.num fields "scale";
    kernels = List.map kernel (Jsonu.arr fields "kernels");
    speedups = List.map speedup (Jsonu.arr fields "speedups");
  }

(* ------------------------------------------------------------------ *)
(* Gates *)

(* The speedup pass bar: at or above this multiple the pair passes
   outright, whatever the baseline says.  Matches the repository's
   headline claim for the rebatching kernel. *)
let speedup_floor = 5.0

(* The kernels whose hot loop is claimed allocation-free outright: the
   fast-substrate sides of the headline pairs and the flat PRNG bank.
   These are gated absolutely (words/op under [zero_alloc_budget]), not
   merely relative to the baseline — a baseline recorded with a box in
   the loop must not grandfather the box in. *)
let zero_alloc_kernels =
  [ "rebatching/fast"; "fast-adaptive/fast"; "prng/flat-int" ]

(* A single box costs >= 1 word/op; the Gc.minor_words metering itself
   amortizes to orders of magnitude less over millions of ops. *)
let zero_alloc_budget = 0.01

let audit s =
  List.filter_map
    (fun name ->
      match List.find_opt (fun k -> k.name = name) s.kernels with
      | None ->
        Some
          (Printf.sprintf "zero-allocation kernel %s missing from this run"
             name)
      | Some c ->
        Artifact.finding
          (c.words_per_op > zero_alloc_budget)
          "%s allocates %.3f words/op; it is claimed allocation-free \
           (budget %.2f)"
          c.name c.words_per_op zero_alloc_budget)
    zero_alloc_kernels
  @ List.filter_map
      (fun k ->
        Artifact.finding
          (not (Float.is_finite k.ns_per_op && Float.is_finite k.words_per_op))
          "kernel %s has non-finite measurements" k.name)
      s.kernels

(* Allocation regressions fail on words/op exceeding the baseline by
   max(0.25, threshold x baseline): the additive floor keeps a 0-alloc
   baseline from turning measurement jitter into failures while still
   catching a real box sneaking into the loop.  Speedups pass at
   [speedup_floor] or within threshold of baseline; ns/op is never
   checked (absolute timing is machine noise). *)
let regress ~threshold ~baseline ~current =
  List.filter_map
    (fun b ->
      match List.find_opt (fun k -> k.name = b.name) current.kernels with
      | None ->
        Some
          (Printf.sprintf "kernel %s present in baseline but not in this run"
             b.name)
      | Some c ->
        let allowed =
          b.words_per_op +. Float.max 0.25 (threshold *. b.words_per_op)
        in
        Artifact.finding
          (c.words_per_op > allowed)
          "%s allocates %.2f words/op (baseline %.2f, allowed %.2f)" c.name
          c.words_per_op b.words_per_op allowed)
    baseline.kernels
  @ List.filter_map
      (fun b ->
        match List.find_opt (fun s -> s.pair = b.pair) current.speedups with
        | None ->
          Some
            (Printf.sprintf
               "speedup pair %s present in baseline but not in this run"
               b.pair)
        | Some c ->
          Artifact.finding
            (c.speedup < speedup_floor
            && c.speedup < (1. -. threshold) *. b.speedup)
            "%s speedup fell to %.2fx (baseline %.2fx, floor %.1fx)" c.pair
            c.speedup b.speedup speedup_floor)
      baseline.speedups

(* ------------------------------------------------------------------ *)
(* Rendering *)

let render s =
  let open Harness in
  let t =
    Table.create
      ~columns:
        [
          ("kernel", Table.Left);
          ("n", Table.Right);
          ("runs", Table.Right);
          ("ops", Table.Right);
          ("ns/op", Table.Right);
          ("words/op", Table.Right);
        ]
  in
  List.iter
    (fun k ->
      Table.add_row t
        [
          k.name;
          Table.cell_int k.n;
          Table.cell_int k.runs;
          Table.cell_int k.ops;
          Table.cell_float ~decimals:1 k.ns_per_op;
          Table.cell_float ~decimals:3 k.words_per_op;
        ])
    s.kernels;
  let sp =
    Table.create ~columns:[ ("pair", Table.Left); ("fast vs effects", Table.Right) ]
  in
  List.iter
    (fun x -> Table.add_row sp [ x.pair; Printf.sprintf "%.2fx" x.speedup ])
    s.speedups;
  Table.render t ^ "\n\n" ^ Table.render sp

let summary s =
  Printf.sprintf "kernel bench, seed=%d, %d kernel(s)" s.seed
    (List.length s.kernels)

let kind =
  {
    Artifact.name;
    schema = 1;
    prefix = "BENCH_";
    encode;
    decode;
    render;
    summary;
    audit;
    regress;
  }
