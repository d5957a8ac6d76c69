type t = {
  pid : int;
  tas : int -> bool;
  reset : int -> unit;
  random_int : int -> int;
  emit : Events.t -> unit;
  observed : bool;
}

let no_reset (_ : int) =
  invalid_arg "Env.reset: this environment does not support release"

let make ?emit ?(reset = no_reset) ~pid ~tas ~random_int () =
  let observed = Option.is_some emit in
  { pid; tas; reset; random_int; emit = Option.value emit ~default:ignore; observed }
