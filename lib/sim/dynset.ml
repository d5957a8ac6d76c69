type t = {
  mutable elements : int array;  (* elements.(0 .. size-1) are the members *)
  mutable size : int;
  mutable positions : int array;  (* value -> index in [elements], -1 absent *)
}

let create () =
  { elements = Array.make 16 0; size = 0; positions = Array.make 16 (-1) }

let size t = t.size
let is_empty t = t.size = 0
let mem t v = v >= 0 && v < Array.length t.positions && t.positions.(v) >= 0

(* Double [positions] until it covers [v]. *)
let cover t v =
  let len = ref (Array.length t.positions) in
  while !len <= v do
    len := 2 * !len
  done;
  let bigger = Array.make !len (-1) in
  Array.blit t.positions 0 bigger 0 (Array.length t.positions);
  t.positions <- bigger

let add t v =
  if v < 0 then invalid_arg "Dynset.add: negative element";
  if v >= Array.length t.positions then cover t v;
  if t.positions.(v) < 0 then begin
    if t.size = Array.length t.elements then begin
      let bigger = Array.make (2 * t.size) 0 in
      Array.blit t.elements 0 bigger 0 t.size;
      t.elements <- bigger
    end;
    t.elements.(t.size) <- v;
    t.positions.(v) <- t.size;
    t.size <- t.size + 1
  end

let remove t v =
  if mem t v then begin
    let idx = t.positions.(v) in
    let last = t.elements.(t.size - 1) in
    t.elements.(idx) <- last;
    t.positions.(last) <- idx;
    t.positions.(v) <- -1;
    t.size <- t.size - 1
  end

let any t rng =
  if t.size = 0 then invalid_arg "Dynset.any: empty set";
  t.elements.(Prng.Splitmix.int rng t.size)

let first t =
  if t.size = 0 then invalid_arg "Dynset.first: empty set";
  t.elements.(t.size - 1)

let iter f t =
  for i = 0 to t.size - 1 do
    f t.elements.(i)
  done

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.elements.(i) :: acc) in
  go (t.size - 1) []

let to_array t = Array.sub t.elements 0 t.size
