type t = {
  n : int;
  epsilon : float;
  base : int;
  obj : int;
  m : int;
  kappa : int;
  batch_sizes : int array;  (* length kappa + 1 *)
  batch_offsets : int array;  (* global location indices *)
  probes : int array;  (* t_i per batch *)
  with_backup : Machine.t;
  without_backup : Machine.t;
}

let default_beta = 3

let t0_formula eps =
  if eps <= 0. then invalid_arg "Rebatching.t0_formula: epsilon must be > 0";
  int_of_float (Float.ceil (17. *. log (8. *. Float.exp 1. /. eps) /. eps))

(* ceil (log2 x) for x >= 1 *)
let ceil_log2 x =
  let rec go acc p = if p >= x then acc else go (acc + 1) (2 * p) in
  go 0 1

let n t = t.n
let epsilon t = t.epsilon
let base t = t.base
let obj t = t.obj
let size t = t.m
let kappa t = t.kappa
let batch_count t = t.kappa + 1

let check_batch t i =
  if i < 0 || i > t.kappa then invalid_arg "Rebatching: batch index out of range"

let batch_size t i =
  check_batch t i;
  t.batch_sizes.(i)

let batch_offset t i =
  check_batch t i;
  t.batch_offsets.(i)

let probe_budget t i =
  check_batch t i;
  t.probes.(i)

let owns_name t u = u >= t.base && u < t.base + t.m

(* The machine of Figure 1.  State: st.(off) = batch index, or kappa+1
   once the process is in the backup scan; st.(off+1) = probe index
   within the batch.  One uniform draw on the batch size immediately
   precedes each TAS; the backup scan draws nothing.  Batches are never
   empty ([make] shrinks kappa instead), so entering a batch always
   yields a probe. *)
let machine_of ~backup ~obj ~base ~m ~kappa ~sizes ~offsets ~probes =
  let backup_mode = kappa + 1 in
  let enter_batch st off (io : Machine.io) pid i =
    st.(off) <- i;
    st.(off + 1) <- 1;
    offsets.(i) + io.draw pid sizes.(i)
  in
  let init st off io pid = enter_batch st off io pid 0 in
  let resume st off (io : Machine.io) pid loc won =
    let i = st.(off) in
    (match io.emit with
    | Some f ->
      let batch = if i <= kappa then i else -1 in
      f (Events.Probe { obj; batch; location = loc; won })
    | None -> ());
    if won then begin
      (match io.emit with
      | Some f -> f (Events.Name_acquired { obj; name = loc })
      | None -> ());
      Machine.finished loc
    end
    else if i <= kappa then begin
      let j = st.(off + 1) + 1 in
      if j <= probes.(i) then begin
        st.(off + 1) <- j;
        offsets.(i) + io.draw pid sizes.(i)
      end
      else begin
        (match io.emit with
        | Some f -> f (Events.Batch_failed { obj; batch = i })
        | None -> ());
        if i < kappa then enter_batch st off io pid (i + 1)
        else if backup then begin
          (match io.emit with
          | Some f -> f (Events.Backup_entered { obj })
          | None -> ());
          st.(off) <- backup_mode;
          base
        end
        else Machine.finished_none
      end
    end
    else if loc + 1 < base + m then loc + 1
    else Machine.finished_none
  in
  { Machine.label = "rebatching"; slots = 2; init; resume }

let make ?(epsilon = 1.0) ?t0 ?(beta = default_beta) ?(base = 0) ?(obj = 0)
    ~n () =
  if n < 1 then invalid_arg "Rebatching.make: n must be >= 1";
  if epsilon <= 0. then invalid_arg "Rebatching.make: epsilon must be > 0";
  if beta < 1 then invalid_arg "Rebatching.make: beta must be >= 1";
  let t0 =
    match t0 with
    | None -> t0_formula epsilon
    | Some v ->
      if v < 1 then invalid_arg "Rebatching.make: t0 must be >= 1";
      v
  in
  let m = int_of_float (Float.ceil ((1. +. epsilon) *. float_of_int n)) in
  (* kappa = ceil (log2 (log2 n)); 0 for n < 3 so tiny instances have a
     single batch. *)
  let kappa = if n < 3 then 0 else ceil_log2 (ceil_log2 n) in
  (* Batch sizes per Eq. (1), truncated so the batches fit inside m: the
     paper assumes n large enough that truncation never triggers; for small
     n we clamp so the instance stays well-formed.  Trailing batches that
     would be empty are dropped by shrinking kappa. *)
  let sizes = Array.make (kappa + 1) 0 in
  let remaining = ref m in
  let last_nonempty = ref (-1) in
  for i = 0 to kappa do
    let want =
      if i = 0 then
        max 1 (int_of_float (Float.ceil (epsilon *. float_of_int n)))
      else (n + (1 lsl i) - 1) / (1 lsl i)
    in
    let got = min want !remaining in
    sizes.(i) <- got;
    remaining := !remaining - got;
    if got > 0 then last_nonempty := i
  done;
  let kappa = max 0 !last_nonempty in
  let sizes = Array.sub sizes 0 (kappa + 1) in
  let offsets = Array.make (kappa + 1) base in
  for i = 1 to kappa do
    offsets.(i) <- offsets.(i - 1) + sizes.(i - 1)
  done;
  let probes =
    Array.init (kappa + 1) (fun i ->
        if i = 0 then t0 else if i = kappa then beta else 1)
  in
  let machine backup =
    machine_of ~backup ~obj ~base ~m ~kappa ~sizes ~offsets ~probes
  in
  { n; epsilon; base; obj; m; kappa; batch_sizes = sizes;
    batch_offsets = offsets; probes; with_backup = machine true;
    without_backup = machine false }

let machine ?(backup = true) t =
  if backup then t.with_backup else t.without_backup

let get_name ?backup env t = Machine.drive (machine ?backup t) env


