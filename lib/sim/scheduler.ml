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
  (* The fiber now executing, and the payload of the effect it is
     suspending: the one handler built in [create] reads them instead
     of capturing them, so suspending an operation constructs no
     closure — only the [Waiting] cell that must carry the
     continuation. *)
  mutable running : int;
  mutable pend_loc : int;
  mutable pend_val : int;
}

let retire t pid =
  if t.active.(pid) then begin
    t.active.(pid) <- false;
    t.active_count <- t.active_count - 1
  end

let suspend t loc op kind =
  let pid = t.running in
  t.cells.(pid) <- Waiting { loc; op };
  t.waiting <- t.waiting + 1;
  t.cb.on_wait ~pid ~loc ~op:kind

let handler t : (int option, unit) Effect.Deep.handler =
  let some_h_tas =
    Some (fun k -> suspend t t.pend_loc (Ptas k) Adversary.Tas_op)
  in
  let some_h_reset =
    Some (fun k -> suspend t t.pend_loc (Preset k) Adversary.Reset_op)
  in
  let some_h_read =
    Some (fun k -> suspend t t.pend_loc (Pread k) Adversary.Read_op)
  in
  let some_h_write =
    Some
      (fun k -> suspend t t.pend_loc (Pwrite (t.pend_val, k)) Adversary.Write_op)
  in
  {
    retc =
      (fun result ->
        let pid = t.running in
        t.cells.(pid) <- Finished result;
        retire t pid;
        t.cb.on_settle ~pid);
    exnc = (function Crash_signal -> () | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Proc.Tas loc ->
          t.pend_loc <- loc;
          some_h_tas
        | Proc.Reset loc ->
          t.pend_loc <- loc;
          some_h_reset
        | Proc.Read reg ->
          t.pend_loc <- reg;
          some_h_read
        | Proc.Write (reg, value) ->
          t.pend_loc <- reg;
          t.pend_val <- value;
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
      running = 0;
      pend_loc = 0;
      pend_val = 0;
    }
  in
  let handler = handler t in
  for pid = 0 to n - 1 do
    t.running <- pid;
    t.cells.(pid) <- Running;
    Effect.Deep.match_with (body pid) () handler
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
    t.running <- pid;
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
    t.running <- pid;
    (* Unwind the fiber so its resources are released; [Crash_signal] is
       swallowed by the handler built in [create]. *)
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
let total_steps t = t.total_steps
let names t = Array.init (Array.length t.cells) (fun pid -> name_of t pid)
let step_counts t = Array.copy t.steps
let crash_count t = t.crashes
