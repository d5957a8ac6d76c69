(* The one body of every renaming algorithm is an integer state machine;
   this module holds the machine type, its action encoding and the
   driver that runs a machine against an [Env.t].  The zero-allocation
   fast core ([Sim.Fast_core]) and the systematic explorer drive the
   same machines directly.

   Action encoding (see the .mli): [a >= 0] requests TAS on location
   [a]; [a = -1] is "finished, no name"; [a = release] (= [min_int])
   asks the driver to reset the location held in the block's last slot;
   any other [a <= -2] is "finished with name [-2 - a]". *)

type io = { draw : int -> int -> int; emit : (Events.t -> unit) option }

let flat bank = { draw = (fun pid bound -> Prng.Flat.int bank pid bound); emit = None }
let fixed draw = { draw; emit = None }

type t = {
  label : string;
  slots : int;
  init : int array -> int -> io -> int -> int;
  resume : int array -> int -> io -> int -> int -> bool -> int;
}

let finished_none = -1
let release = min_int
let[@inline] finished u = -2 - u

let name_of_action a =
  if a <= -2 && a <> release then Some (-2 - a) else None

let slots t = t.slots

let drive m (env : Env.t) =
  let st = Array.make m.slots 0 in
  let io =
    {
      draw = (fun _ bound -> env.random_int bound);
      emit = (if env.observed then Some env.emit else None);
    }
  in
  let pid = env.pid in
  let rec go a =
    if a >= 0 then begin
      let won = env.tas a in
      go (m.resume st 0 io pid a won)
    end
    else if a = release then begin
      let loc = st.(m.slots - 1) in
      env.reset loc;
      go (m.resume st 0 io pid loc false)
    end
    else if a = finished_none then None
    else Some (-2 - a)
  in
  go (m.init st 0 io pid)
