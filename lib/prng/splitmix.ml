type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* The SplitMix64 finalizer: two xor-shift-multiply rounds.  This is the
   standard mix64 function; it is a bijection on 64-bit words. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.add seed golden_gamma) }

let of_int seed = create (Int64.of_int seed)

let copy t = { state = t.state }
let state t = t.state
let of_state s = { state = s }

let[@inline] next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = next_int64 t in
  create seed

let split_at t i =
  (* Derive child [i] purely: mix the current state with a diffusion of
     [i], without advancing [t].  Children with distinct [i] get distinct,
     well-separated seeds. *)
  let child_seed =
    mix64 (Int64.add t.state (Int64.mul (Int64.of_int (i + 1)) golden_gamma))
  in
  create child_seed

let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(* Rejection sampling to avoid modulo bias; top-level so a draw
   allocates no closure. *)
let rec reject t bound limit =
  let v = bits t in
  if v >= limit then reject t bound limit else v mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* power of two: mask is exact *)
    bits t land (bound - 1)
  else
    let max_int62 = (1 lsl 62) - 1 in
    reject t bound (max_int62 - (max_int62 mod bound))

let int_in t lo hi =
  if hi < lo then invalid_arg "Splitmix.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t =
  (* 53 random bits scaled into [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int v *. 0x1p-53

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t p =
  if p <= 0. then false
  else if p >= 1. then true
  else float t < p
