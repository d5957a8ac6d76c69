(* The allocation-free execution path for oblivious schedules.

   The effects scheduler pays one continuation capture plus a [Waiting]
   cell per shared-memory operation; at n ~ 10^5..10^6 that allocation
   (and the GC work behind it) dominates wall clock.  For the schedules
   the big sweeps actually use — the uniformly random oblivious adversary
   and the sequential solo order — no continuation is needed: a process
   is fully described by the integer state of its [Renaming.Machine] machine.
   This driver runs those machines with zero heap allocation per step:
   coins live unboxed in a [Prng.Flat] bank, the ready set is a flat
   Fisher-Yates swap array, and the TAS space is a reused
   [Location_space] cleared in place between runs.

   Layout: per-process bookkeeping is structure-of-arrays over unboxed
   [Bigarray.Array1] int lanes (pending location, ready set, names, step
   counts, sequential order) plus flat byte lanes for
   the booleans — one cache-linear lane per field rather than one record
   per process, so the batch loops scan contiguous untagged memory and a
   lane index is a plain machine word.  Only the machine-state lane [st]
   stays an OCaml [int array]: it is the [Renaming.Machine] transition
   contract, shared with the draw-enumeration explorer.

   Equivalence: [run] reproduces [Runner.run ~adversary:Adversary.random]
   and [run_sequential] reproduces [Runner.run_sequential] decision for
   decision — same per-pid coin streams ([Splitmix.split_at root pid]),
   same scheduler stream (index [n]), same swap-removal of settled
   processes, so results agree bit for bit.  The QCheck suite pins this.
   A process moves by one of two transitions, a step ([step_at]) or a
   crash ([crash_at]); [run]'s random loop and the explorer's
   [step_pid]/[crash_pid]/[crash_pid_after_win] all take the same two.

   A handle is reusable: [create] once, then [reset ~seed] + [run] per
   execution, with only [result] (called outside the measured loop)
   allocating. *)

type lane = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let lane n : lane =
  let a = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout n in
  Bigarray.Array1.fill a 0;
  a

let copy_lane (a : lane) : lane =
  let c = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout (Bigarray.Array1.dim a) in
  Bigarray.Array1.blit a c;
  c

type t = {
  algo : Renaming.Machine.t;
  n : int;
  space : Location_space.t;
  rng : Prng.Flat.t;  (* streams 0..n-1 = processes, n = scheduler *)
  io : Renaming.Machine.io;  (* the machines' view of [rng]; no listener *)
  st : int array;  (* n * slots machine state (Machine contract) *)
  pending : lane;  (* per pid: location of the pending TAS *)
  ready : lane;  (* Fisher-Yates swap array of waiting pids *)
  names : lane;  (* -1 = none *)
  steps : lane;
  crashed : Bytes.t;
  active : Bytes.t;
  order : lane;  (* sequential execution order *)
  mutable size : int;  (* live prefix of [ready] *)
  mutable total_steps : int;
  mutable crash_count : int;
  mutable active_count : int;
  mutable max_active : int;  (* point contention *)
}

let create ?capacity ~algo ~n () =
  if n < 1 then invalid_arg "Fast_core.create: n must be >= 1";
  let rng = Prng.Flat.create (n + 1) in
  {
    algo;
    n;
    space = Location_space.create ?capacity ();
    rng;
    io = Renaming.Machine.flat rng;
    st = Array.make (n * Renaming.Machine.slots algo) 0;
    pending = lane n;
    ready = lane n;
    names = lane n;
    steps = lane n;
    crashed = Bytes.make n '\000';
    active = Bytes.make n '\000';
    order = lane n;
    size = 0;
    total_steps = 0;
    crash_count = 0;
    active_count = 0;
    max_active = 0;
  }

let reset t ~seed =
  Location_space.clear t.space;
  Prng.Flat.reseed t.rng ~seed;
  Bigarray.Array1.fill t.names (-1);
  Bigarray.Array1.fill t.steps 0;
  Bigarray.Array1.fill t.pending (-1);
  Bytes.fill t.crashed 0 t.n '\000';
  Bytes.fill t.active 0 t.n '\000';
  t.size <- 0;
  t.total_steps <- 0;
  t.crash_count <- 0;
  t.active_count <- 0;
  t.max_active <- 0

let[@inline] activate t pid =
  if Bytes.unsafe_get t.active pid = '\000' then begin
    Bytes.unsafe_set t.active pid '\001';
    t.active_count <- t.active_count + 1;
    if t.active_count > t.max_active then t.max_active <- t.active_count
  end

(* [pid], in ready slot [idx], leaves the ready set: it finished or
   crashed. *)
let[@inline] settle t idx pid =
  if Bytes.unsafe_get t.active pid = '\001' then begin
    Bytes.unsafe_set t.active pid '\000';
    t.active_count <- t.active_count - 1
  end;
  t.size <- t.size - 1;
  Bigarray.Array1.unsafe_set t.ready idx
    (Bigarray.Array1.unsafe_get t.ready t.size)

(* Execute [pid]'s pending TAS on [loc], counting the step; the
   outcome. *)
let[@inline] tas_pending t pid loc =
  Bigarray.Array1.unsafe_set t.steps pid
    (Bigarray.Array1.unsafe_get t.steps pid + 1);
  t.total_steps <- t.total_steps + 1;
  activate t pid;
  Location_space.tas t.space loc

(* The step transition of the pid in ready slot [idx]: its pending TAS,
   then its machine up to the next pending operation or to its finish. *)
let[@inline] step_at t idx pid =
  let loc = Bigarray.Array1.unsafe_get t.pending pid in
  let won = tas_pending t pid loc in
  let a =
    t.algo.Renaming.Machine.resume t.st
      (pid * Renaming.Machine.slots t.algo)
      t.io pid loc won
  in
  if a >= 0 then Bigarray.Array1.unsafe_set t.pending pid a
  else begin
    if a <= -2 then Bigarray.Array1.unsafe_set t.names pid (-2 - a);
    settle t idx pid
  end

(* The crash transition (§2): the pid in ready slot [idx] takes no
   further step. *)
let[@inline] crash_at t idx pid =
  Bytes.unsafe_set t.crashed pid '\001';
  t.crash_count <- t.crash_count + 1;
  settle t idx pid

(* Run [pid]'s machine up to its first pending operation, which puts it
   in the ready set, or to an immediate finish. *)
let start_pid t pid =
  let a =
    t.algo.Renaming.Machine.init t.st
      (pid * Renaming.Machine.slots t.algo)
      t.io pid
  in
  if a >= 0 then begin
    Bigarray.Array1.unsafe_set t.pending pid a;
    Bigarray.Array1.unsafe_set t.ready t.size pid;
    t.size <- t.size + 1
  end
  else
    match Renaming.Machine.name_of_action a with
    | Some u -> Bigarray.Array1.unsafe_set t.names pid u
    | None -> ()

(* Start every machine; mirrors [Scheduler.create] running each body up
   to its first pending operation. *)
let start t =
  t.size <- 0;
  for pid = 0 to t.n - 1 do
    start_pid t pid
  done

let run ?(max_total_steps = 10_000_000) t =
  start t;
  let budget = ref max_total_steps in
  while t.size > 0 do
    if !budget <= 0 then raise Scheduler.Step_limit_exceeded;
    decr budget;
    (* Same decision as [Adversary.random]: uniform index into the
       waiting set, drawn from the scheduler's own stream. *)
    let idx = Prng.Flat.int t.rng t.n t.size in
    step_at t idx (Bigarray.Array1.unsafe_get t.ready idx)
  done

let run_sequential ?(shuffled = true) t =
  let slots = Renaming.Machine.slots t.algo in
  let init = t.algo.Renaming.Machine.init in
  let resume = t.algo.Renaming.Machine.resume in
  (* Same order as [Runner.run_sequential]: a Fisher-Yates permutation
     from the scheduler stream, or pid order. *)
  for i = 0 to t.n - 1 do
    Bigarray.Array1.unsafe_set t.order i i
  done;
  if shuffled then
    for i = t.n - 1 downto 1 do
      let j = Prng.Flat.int t.rng t.n (i + 1) in
      let tmp = Bigarray.Array1.unsafe_get t.order i in
      Bigarray.Array1.unsafe_set t.order i (Bigarray.Array1.unsafe_get t.order j);
      Bigarray.Array1.unsafe_set t.order j tmp
    done;
  for k = 0 to t.n - 1 do
    let pid = Bigarray.Array1.unsafe_get t.order k in
    let off = pid * slots in
    let a = ref (init t.st off t.io pid) in
    let steps = ref 0 in
    while !a >= 0 do
      incr steps;
      let won = Location_space.tas t.space !a in
      a := resume t.st off t.io pid !a won
    done;
    Bigarray.Array1.unsafe_set t.steps pid !steps;
    t.total_steps <- t.total_steps + !steps;
    if !a <= -2 then Bigarray.Array1.unsafe_set t.names pid (-2 - !a)
  done;
  t.max_active <- 1

(* Result extraction (allocates; call outside measured loops). *)
let result t =
  let names =
    Array.init t.n (fun pid ->
        let u = Bigarray.Array1.get t.names pid in
        if u < 0 then None else Some u)
  in
  let steps = Array.init t.n (Bigarray.Array1.get t.steps) in
  let crashed = Array.init t.n (fun pid -> Bytes.get t.crashed pid = '\001') in
  {
    Runner.names;
    steps;
    crashed;
    total_steps = t.total_steps;
    max_steps = Runner.surviving_max steps crashed;
    space_used = Location_space.high_water_mark t.space;
    crash_count = t.crash_count;
    point_contention = t.max_active;
  }

let space t = t.space
let total_steps t = t.total_steps

(* One-shot conveniences mirroring the [Runner] entry points. *)
let run_once ?max_total_steps ~seed ~n ~algo () =
  let t = create ~algo ~n () in
  reset t ~seed;
  run ?max_total_steps t;
  result t

let run_sequential_once ?shuffled ~seed ~n ~algo () =
  let t = create ~algo ~n () in
  reset t ~seed;
  run_sequential ?shuffled t;
  result t

(* ------------------------------------------------------------------ *)
(* Streaming sequential execution for very large n.

   [run_sequential ~shuffled:false] still holds O(n) lanes and an
   (n+1)-stream coin bank, which caps it around n ~ 10^7 per gigabyte.
   For the decade sweeps at n = 10^8 only the aggregates matter, and in
   pid order each process runs to completion before the next starts, so
   per-process state can be O(1): one [slots]-int scratch block, one
   coin slot re-derived per pid via [Prng.Flat.seed_stream], and running
   aggregate counters.  The produced execution is bit-identical to
   [run_sequential ~shuffled:false] on the same seed — same per-pid
   streams, same probes, same space — which the QCheck suite pins at
   n up to 10^4.  The loop allocates nothing (mutable fields, no refs),
   so the sweeps' 0 words/op claim survives three more decades of n. *)

type seq = {
  q_algo : Renaming.Machine.t;
  q_space : Location_space.t;
  q_rng : Prng.Flat.t;  (* single slot, re-derived per pid *)
  q_io : Renaming.Machine.io;
  q_st : int array;  (* one machine's slots *)
  mutable q_a : int;  (* current action (loop scratch) *)
  mutable q_steps : int;  (* current pid's step count (loop scratch) *)
  mutable q_total : int;
  mutable q_max : int;
  mutable q_named : int;
  mutable q_max_name : int;  (* -1 = none *)
}

let seq_create ?capacity ~algo () =
  let rng = Prng.Flat.create 1 in
  {
    q_algo = algo;
    q_space = Location_space.create ?capacity ();
    q_rng = rng;
    q_io = Renaming.Machine.fixed (fun _pid bound -> Prng.Flat.int rng 0 bound);
    q_st = Array.make (Renaming.Machine.slots algo) 0;
    q_a = -1;
    q_steps = 0;
    q_total = 0;
    q_max = 0;
    q_named = 0;
    q_max_name = -1;
  }

let seq_run q ~seed ~n =
  if n < 1 then invalid_arg "Fast_core.seq_run: n must be >= 1";
  Location_space.clear q.q_space;
  q.q_total <- 0;
  q.q_max <- 0;
  q.q_named <- 0;
  q.q_max_name <- -1;
  let init = q.q_algo.Renaming.Machine.init in
  let resume = q.q_algo.Renaming.Machine.resume in
  let st = q.q_st in
  let io = q.q_io in
  for pid = 0 to n - 1 do
    Prng.Flat.seed_stream q.q_rng ~slot:0 ~seed ~stream:pid;
    q.q_a <- init st 0 io pid;
    q.q_steps <- 0;
    while q.q_a >= 0 do
      q.q_steps <- q.q_steps + 1;
      let won = Location_space.tas q.q_space q.q_a in
      q.q_a <- resume st 0 io pid q.q_a won
    done;
    q.q_total <- q.q_total + q.q_steps;
    if q.q_steps > q.q_max then q.q_max <- q.q_steps;
    if q.q_a <= -2 then begin
      q.q_named <- q.q_named + 1;
      let u = -2 - q.q_a in
      if u > q.q_max_name then q.q_max_name <- u
    end
  done

let seq_total_steps q = q.q_total
let seq_max_steps q = q.q_max
let seq_named q = q.q_named
let seq_max_name q = q.q_max_name
let seq_space q = q.q_space
let seq_space_used q = Location_space.high_water_mark q.q_space

(* ------------------------------------------------------------------ *)
(* Step-granular control for the systematic explorer.

   [Analysis.Explore] owns the schedule: instead of drawing scheduler
   coins it names the pid to advance at each point, and saves/restores
   the whole core around every DFS branch.  A step and a crash are the
   same transitions [run] takes, so an explored trace is exactly a trace
   the sampling scheduler could have produced for the same per-pid coin
   streams. *)

let live_count t = t.size
let live_pid t i = Bigarray.Array1.get t.ready i
let pending_loc t ~pid = Bigarray.Array1.get t.pending pid
let steps_of t ~pid = Bigarray.Array1.get t.steps pid
let is_crashed t ~pid = Bytes.get t.crashed pid = '\001'

let name_of t ~pid =
  let u = Bigarray.Array1.get t.names pid in
  if u < 0 then None else Some u

let ready_index t pid =
  let rec go i =
    if i >= t.size then
      invalid_arg "Fast_core: pid has no pending operation"
    else if Bigarray.Array1.get t.ready i = pid then i
    else go (i + 1)
  in
  go 0

let step_pid t ~pid = step_at t (ready_index t pid) pid
let crash_pid t ~pid = crash_at t (ready_index t pid) pid

let crash_pid_after_win t ~pid =
  let idx = ready_index t pid in
  if not (tas_pending t pid (pending_loc t ~pid)) then
    invalid_arg "Fast_core.crash_pid_after_win: the pending TAS would lose";
  crash_at t idx pid

let restart_pid t ~pid =
  if pid < 0 || pid >= t.n then invalid_arg "Fast_core.restart_pid: bad pid";
  if is_crashed t ~pid then
    invalid_arg "Fast_core.restart_pid: pid crashed";
  (let rec live i =
     i < t.size && (Bigarray.Array1.get t.ready i = pid || live (i + 1))
   in
   if live 0 then invalid_arg "Fast_core.restart_pid: pid still running");
  Bigarray.Array1.set t.names pid (-1);
  start_pid t pid

type snap = {
  s_st : int array;
  s_pending : lane;
  s_ready : lane;
  s_names : lane;
  s_steps : lane;
  s_crashed : Bytes.t;
  s_active : Bytes.t;
  s_size : int;
  s_total : int;
  s_crash_count : int;
  s_active_count : int;
  s_max_active : int;
  s_streams : int64 array;  (* all n+1 Flat stream states *)
  s_space : Location_space.snap;
}

let snapshot t =
  {
    s_st = Array.copy t.st;
    s_pending = copy_lane t.pending;
    s_ready = copy_lane t.ready;
    s_names = copy_lane t.names;
    s_steps = copy_lane t.steps;
    s_crashed = Bytes.copy t.crashed;
    s_active = Bytes.copy t.active;
    s_size = t.size;
    s_total = t.total_steps;
    s_crash_count = t.crash_count;
    s_active_count = t.active_count;
    s_max_active = t.max_active;
    s_streams = Array.init (t.n + 1) (Prng.Flat.get_state t.rng);
    s_space = Location_space.save t.space;
  }

let restore t s =
  Array.blit s.s_st 0 t.st 0 (Array.length t.st);
  Bigarray.Array1.blit s.s_pending t.pending;
  Bigarray.Array1.blit s.s_ready t.ready;
  Bigarray.Array1.blit s.s_names t.names;
  Bigarray.Array1.blit s.s_steps t.steps;
  Bytes.blit s.s_crashed 0 t.crashed 0 t.n;
  Bytes.blit s.s_active 0 t.active 0 t.n;
  t.size <- s.s_size;
  t.total_steps <- s.s_total;
  t.crash_count <- s.s_crash_count;
  t.active_count <- s.s_active_count;
  t.max_active <- s.s_max_active;
  for i = 0 to t.n do
    Prng.Flat.set_state t.rng i s.s_streams.(i)
  done;
  Location_space.restore t.space s.s_space
