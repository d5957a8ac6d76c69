let max_index = 60

type geometry = {
  top : int;
  kappa : int array;
  batch_size : int array array;
  batch_offset : int array array;
  budget : int array array;
  name_lo : int array;
  name_hi : int array;
}

type t = {
  epsilon : float;
  t0 : int option;
  beta : int;
  cap : int;
  (* memo tables indexed by object index; slot 0 unused *)
  objects : Rebatching.t option array;
  offsets : int array;  (* s_i; offsets.(i) valid once computed_up_to >= i *)
  mutable computed_up_to : int;
  mutable geometry : geometry option;
}

let create ?(epsilon = 1.0) ?t0 ?(beta = Rebatching.default_beta)
    ?(cap = max_index) () =
  if epsilon <= 0. then invalid_arg "Object_space.create: epsilon must be > 0";
  if cap < 1 || cap > max_index then
    invalid_arg "Object_space.create: cap outside [1, max_index]";
  {
    epsilon;
    t0;
    beta;
    cap;
    objects = Array.make (max_index + 2) None;
    offsets = Array.make (max_index + 2) 0;
    computed_up_to = 0;
    geometry = None;
  }

let m_of t i =
  int_of_float (Float.ceil ((1. +. t.epsilon) *. float_of_int (1 lsl i)))

(* Ensure offsets s_1 .. s_{i+1} are filled in. *)
let ensure_offsets t i =
  if t.computed_up_to < i then begin
    for j = max 1 t.computed_up_to to i do
      t.offsets.(j + 1) <- t.offsets.(j) + m_of t j
    done;
    t.computed_up_to <- i
  end

let cap t = t.cap

let check_index t i =
  if i < 1 || i > t.cap then
    invalid_arg "Object_space: object index out of range"

let offset t i =
  check_index t i;
  ensure_offsets t i;
  t.offsets.(i)

let obj t i =
  check_index t i;
  match t.objects.(i) with
  | Some r -> r
  | None ->
    let r =
      Rebatching.make ~epsilon:t.epsilon ?t0:t.t0 ~beta:t.beta
        ~base:(offset t i) ~obj:i ~n:(1 lsl i) ()
    in
    t.objects.(i) <- Some r;
    r

let total_size t i =
  check_index t i;
  ensure_offsets t i;
  t.offsets.(i + 1)

let ladder_capacity t = total_size t 16

let in_object t i ~name =
  check_index t i;
  let s = offset t i in
  name >= s && name < s + m_of t i

let owner_of_name t u =
  if u < 0 then None
  else begin
    let rec find i =
      if i > t.cap then None
      else if in_object t i ~name:u then Some i
      else find (i + 1)
    in
    find 1
  end

(* Built on first use and kept: every adaptive machine over this space
   shares it.  Two domains racing here build equal tables, and either
   store wins. *)
let geometry t =
  match t.geometry with
  | Some g -> g
  | None ->
    let table default f =
      Array.init (t.cap + 1) (fun i -> if i = 0 then default else f (obj t i))
    in
    let batches f =
      table [||] (fun r -> Array.init (Rebatching.batch_count r) (f r))
    in
    let g =
      {
        top = t.cap;
        kappa = table 0 Rebatching.kappa;
        batch_size = batches Rebatching.batch_size;
        batch_offset = batches Rebatching.batch_offset;
        budget = batches Rebatching.probe_budget;
        name_lo = table 0 Rebatching.base;
        name_hi = table 0 (fun r -> Rebatching.base r + Rebatching.size r);
      }
    in
    t.geometry <- Some g;
    g

let[@inline] in_range g i name = name >= g.name_lo.(i) && name < g.name_hi.(i)
