exception Step_limit_exceeded
exception Crash_signal

(* A suspended process holds the continuation of whichever shared-memory
   operation it is about to execute. *)
type pending =
  | Ptas of (bool, unit) Effect.Deep.continuation
  | Preset of (unit, unit) Effect.Deep.continuation
  | Pread of (int, unit) Effect.Deep.continuation
  | Pwrite of int * (unit, unit) Effect.Deep.continuation

type cell =
  | Waiting of { loc : int; op : pending }
  | Running  (* transiently, while the process body executes *)
  | Finished of int option
  | Crashed

type t = {
  space : Location_space.t;
  registers : Register_space.t;
  cells : cell array;
  steps : int array;
  (* point-contention tracking: a process is active from its first
     executed operation until it finishes or crashes *)
  active : bool array;
  mutable active_count : int;
  mutable max_active : int;
  mutable waiting : int;
  mutable total_steps : int;
  mutable crashes : int;
  cb : Adversary.callbacks;
  (* Payload of the effect currently being suspended, stashed here so the
     per-process handler closures below can be built once in [start]
     instead of once per shared-memory operation. *)
  pend_loc : int array;
  pend_val : int array;
}

let retire t pid =
  if t.active.(pid) then begin
    t.active.(pid) <- false;
    t.active_count <- t.active_count - 1
  end

let start t pid body =
  t.cells.(pid) <- Running;
  (* One handler closure (and its [Some] wrapper) per operation kind per
     process, built here once: the effect's payload travels through
     [pend_loc]/[pend_val] rather than being captured, so suspending an
     operation no longer constructs a fresh closure — only the [Waiting]
     cell that must carry the continuation remains per-step. *)
  let h_tas (k : (bool, unit) Effect.Deep.continuation) =
    let loc = t.pend_loc.(pid) in
    t.cells.(pid) <- Waiting { loc; op = Ptas k };
    t.waiting <- t.waiting + 1;
    t.cb.on_wait ~pid ~loc ~op:Adversary.Tas_op
  in
  let h_reset (k : (unit, unit) Effect.Deep.continuation) =
    let loc = t.pend_loc.(pid) in
    t.cells.(pid) <- Waiting { loc; op = Preset k };
    t.waiting <- t.waiting + 1;
    t.cb.on_wait ~pid ~loc ~op:Adversary.Reset_op
  in
  let h_read (k : (int, unit) Effect.Deep.continuation) =
    let reg = t.pend_loc.(pid) in
    t.cells.(pid) <- Waiting { loc = reg; op = Pread k };
    t.waiting <- t.waiting + 1;
    t.cb.on_wait ~pid ~loc:reg ~op:Adversary.Read_op
  in
  let h_write (k : (unit, unit) Effect.Deep.continuation) =
    let reg = t.pend_loc.(pid) in
    t.cells.(pid) <- Waiting { loc = reg; op = Pwrite (t.pend_val.(pid), k) };
    t.waiting <- t.waiting + 1;
    t.cb.on_wait ~pid ~loc:reg ~op:Adversary.Write_op
  in
  let some_h_tas = Some h_tas in
  let some_h_reset = Some h_reset in
  let some_h_read = Some h_read in
  let some_h_write = Some h_write in
  Effect.Deep.match_with body ()
    {
      retc =
        (fun result ->
          t.cells.(pid) <- Finished result;
          retire t pid;
          t.cb.on_settle ~pid);
      exnc = (function Crash_signal -> () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Proc.Tas loc ->
            t.pend_loc.(pid) <- loc;
            some_h_tas
          | Proc.Reset loc ->
            t.pend_loc.(pid) <- loc;
            some_h_reset
          | Proc.Read reg ->
            t.pend_loc.(pid) <- reg;
            some_h_read
          | Proc.Write (reg, value) ->
            t.pend_loc.(pid) <- reg;
            t.pend_val.(pid) <- value;
            some_h_write
          | _ -> None);
    }

let create ?registers ~space ~adversary ~rng ~n ~body () =
  let registers =
    match registers with Some r -> r | None -> Register_space.create ()
  in
  let ctx =
    {
      Adversary.procs = n;
      rng;
      location_taken = (fun loc -> Location_space.is_taken space loc);
      register_value = (fun reg -> Register_space.peek registers reg);
    }
  in
  let cb = adversary.Adversary.make ctx in
  let t =
    {
      space;
      registers;
      cells = Array.make n (Finished None);
      steps = Array.make n 0;
      active = Array.make n false;
      active_count = 0;
      max_active = 0;
      waiting = 0;
      total_steps = 0;
      crashes = 0;
      cb;
      pend_loc = Array.make n 0;
      pend_val = Array.make n 0;
    }
  in
  for pid = 0 to n - 1 do
    start t pid (body pid)
  done;
  t

let step t pid =
  match t.cells.(pid) with
  | Waiting { loc; op } ->
    t.cells.(pid) <- Running;
    t.waiting <- t.waiting - 1;
    t.steps.(pid) <- t.steps.(pid) + 1;
    t.total_steps <- t.total_steps + 1;
    if not t.active.(pid) then begin
      t.active.(pid) <- true;
      t.active_count <- t.active_count + 1;
      if t.active_count > t.max_active then t.max_active <- t.active_count
    end;
    (match op with
    | Ptas k ->
      let won = Location_space.tas t.space loc in
      t.cb.on_tas ~loc ~won;
      Effect.Deep.continue k won
    | Preset k ->
      Location_space.release t.space loc;
      Effect.Deep.continue k ()
    | Pread k ->
      let v = Register_space.read t.registers loc in
      Effect.Deep.continue k v
    | Pwrite (value, k) ->
      Register_space.write t.registers loc value;
      Effect.Deep.continue k ())
  | Running | Finished _ | Crashed ->
    invalid_arg "Scheduler.step: process is not waiting"

let crash t pid =
  match t.cells.(pid) with
  | Waiting { op; loc = _ } ->
    t.cells.(pid) <- Crashed;
    t.waiting <- t.waiting - 1;
    t.crashes <- t.crashes + 1;
    retire t pid;
    t.cb.on_settle ~pid;
    (* Unwind the fiber so its resources are released; [Crash_signal] is
       swallowed by the handler installed in [start]. *)
    (try
       match op with
       | Ptas k -> Effect.Deep.discontinue k Crash_signal
       | Preset k -> Effect.Deep.discontinue k Crash_signal
       | Pread k -> Effect.Deep.discontinue k Crash_signal
       | Pwrite (_, k) -> Effect.Deep.discontinue k Crash_signal
     with Crash_signal -> ())
  | Running | Finished _ | Crashed ->
    invalid_arg "Scheduler.crash: process is not waiting"

let run_to_completion ?(max_steps = 10_000_000) t =
  let budget = ref max_steps in
  while t.waiting > 0 do
    if !budget <= 0 then raise Step_limit_exceeded;
    decr budget;
    match t.cb.pick () with
    | Adversary.Step pid -> step t pid
    | Adversary.Crash pid -> crash t pid
  done

let name_of t pid =
  match t.cells.(pid) with Finished r -> r | Waiting _ | Running | Crashed -> None

let crashed t pid = match t.cells.(pid) with Crashed -> true | _ -> false
let max_point_contention t = t.max_active
let steps_of t pid = t.steps.(pid)
let total_steps t = t.total_steps
let names t = Array.init (Array.length t.cells) (fun pid -> name_of t pid)
let step_counts t = Array.copy t.steps
let crash_count t = t.crashes
