(* Storage is a dense preallocated prefix plus a sparse tail.

   The dense prefix is the large-n mode: [create ~capacity] (or
   {!preallocate}) commits a flat byte per location up front, so every
   probe of a measured sweep at n = 10^8 is one unsafe byte access.

   The adaptive algorithms place object R_i at an offset exponential in
   i, so a process that overshoots the race ladder probes cells near
   2^33, and such a rare probe must cost a few bytes, not a page.  Every
   location at or above [dense_len] lives in a 32-cell bitmap block
   keyed by [loc lsr 5], in one open-addressing table: an interleaved
   [int array] of (key, bits) slots, key -1 marking an empty slot,
   Fibonacci-hashed by groups of 8 blocks, linearly probed and doubled
   when half full.  Keys are never removed, so a cleared space
   re-running an execution finds every key present and allocates
   nothing.  The scan is a top-level function, not a local closure, so
   probing allocates no environment.  Invariant: table bits of cells
   below [dense_len] are zero. *)

let block_bits = 5
let block_mask = (1 lsl block_bits) - 1

(* 2^63 / golden ratio, rounded to the odd integer above: the multiplier
   of Fibonacci hashing on OCaml's 63-bit ints (the literal wraps to a
   negative int). *)
let golden = 0x4F1BBCDCBFA53E0B
let group_bits = 3
let initial_slots_log2 = 4  (* > group_bits *)

type t = {
  mutable dense : Bytes.t;  (* flat storage for locations < dense_len *)
  mutable dense_len : int;
  mutable table : int array;  (* slot i: key at 2i, bitmap at 2i+1 *)
  mutable shift : int;  (* 63 - log2 slots *)
  mutable used : int;  (* occupied slots *)
  mutable probes : int;
  mutable wins : int;
  mutable hwm : int;
}

let empty_table () = Array.make (2 lsl initial_slots_log2) (-1)

let create ?(capacity = 0) () =
  {
    dense = Bytes.make (max capacity 0) '\000';
    dense_len = max capacity 0;
    table = empty_table ();
    shift = 63 - initial_slots_log2;
    used = 0;
    probes = 0;
    wins = 0;
    hwm = 0;
  }

(* The slot holding [key], or the empty slot where it would go. *)
let rec scan (tab : int array) mask (key : int) i =
  let k = Array.unsafe_get tab (2 * i) in
  if k = key || k < 0 then i else scan tab mask key ((i + 1) land mask)

(* The hash picks a run of [1 lsl group_bits] slots for each group of as
   many consecutive blocks, which take the run in order: a dense stretch
   of the tail (the doubling baseline's objects past the prefix) then
   keeps the cache locality of a flat array (hashing each block on its
   own scattered it, and cost that baseline ~10% per step at k = 10^6
   and 10^7). *)
let[@inline] slot t key =
  let group = ((key lsr group_bits) * golden) lsr (t.shift + group_bits) in
  scan t.table ((Array.length t.table lsr 1) - 1) key
    ((group lsl group_bits) lor (key land ((1 lsl group_bits) - 1)))

let grow t =
  let old = t.table in
  t.table <- Array.make (2 * Array.length old) (-1);
  t.shift <- t.shift - 1;
  for i = 0 to (Array.length old lsr 1) - 1 do
    let k = old.(2 * i) in
    if k >= 0 then begin
      let j = slot t k in
      t.table.(2 * j) <- k;
      t.table.((2 * j) + 1) <- old.((2 * i) + 1)
    end
  done

(* The slot of [key], inserting an all-free block if absent. *)
let rec find_or_add t key =
  let i = slot t key in
  if t.table.(2 * i) = key then i
  else if 2 * (t.used + 1) > Array.length t.table lsr 1 then begin
    grow t;
    find_or_add t key
  end
  else begin
    t.table.(2 * i) <- key;
    t.table.((2 * i) + 1) <- 0;
    t.used <- t.used + 1;
    i
  end

(* Mark the cells [bits] of block [key] taken, each in the dense prefix
   if it lies below [dense_len] and in the table otherwise. *)
let set_block t key bits =
  let base = key lsl block_bits in
  let below = min (block_mask + 1) (max 0 (t.dense_len - base)) in
  for b = 0 to below - 1 do
    if bits land (1 lsl b) <> 0 then Bytes.set t.dense (base + b) '\001'
  done;
  let above = bits land (-1 lsl below) in
  if above <> 0 then begin
    let i = find_or_add t key in
    t.table.((2 * i) + 1) <- t.table.((2 * i) + 1) lor above
  end

let clear_bits t =
  let tab = t.table in
  for i = 0 to (Array.length tab lsr 1) - 1 do
    if tab.(2 * i) >= 0 then tab.((2 * i) + 1) <- 0
  done

let preallocate t ~capacity =
  if capacity > t.dense_len then begin
    let d = Bytes.make capacity '\000' in
    Bytes.blit t.dense 0 d 0 t.dense_len;
    t.dense <- d;
    t.dense_len <- capacity;
    (* Re-home every taken tail cell: [set_block] puts the cells now
       below the boundary in the prefix and the rest back in their
       (still present) slot, so the taken/free state is unchanged. *)
    let tab = t.table in
    for i = 0 to (Array.length tab lsr 1) - 1 do
      let bits = tab.((2 * i) + 1) in
      if tab.(2 * i) >= 0 && bits <> 0 then begin
        tab.((2 * i) + 1) <- 0;
        set_block t tab.(2 * i) bits
      end
    done
  end

let tas t loc =
  if loc < 0 then invalid_arg "Location_space.tas: negative location";
  t.probes <- t.probes + 1;
  if loc >= t.hwm then t.hwm <- loc + 1;
  if loc < t.dense_len then
    if Bytes.unsafe_get t.dense loc = '\000' then begin
      Bytes.unsafe_set t.dense loc '\001';
      t.wins <- t.wins + 1;
      true
    end
    else false
  else begin
    let j = (2 * find_or_add t (loc lsr block_bits)) + 1 in
    let bits = t.table.(j) in
    let bit = 1 lsl (loc land block_mask) in
    if bits land bit = 0 then begin
      t.table.(j) <- bits lor bit;
      t.wins <- t.wins + 1;
      true
    end
    else false
  end

let release t loc =
  if loc < 0 then invalid_arg "Location_space.release: negative location";
  if loc >= t.hwm then t.hwm <- loc + 1;
  if loc < t.dense_len then begin
    if Bytes.unsafe_get t.dense loc = '\001' then begin
      Bytes.unsafe_set t.dense loc '\000';
      t.wins <- t.wins - 1
    end
  end
  else begin
    (* A block never probed holds nothing to free: look, don't insert. *)
    let key = loc lsr block_bits in
    let j = (2 * slot t key) + 1 in
    let bit = 1 lsl (loc land block_mask) in
    if t.table.(j - 1) = key && t.table.(j) land bit <> 0 then begin
      t.table.(j) <- t.table.(j) land lnot bit;
      t.wins <- t.wins - 1
    end
  end

let is_taken t loc =
  loc >= 0
  &&
  if loc < t.dense_len then Bytes.unsafe_get t.dense loc = '\001'
  else
    let key = loc lsr block_bits in
    let i = slot t key in
    t.table.(2 * i) = key
    && t.table.((2 * i) + 1) land (1 lsl (loc land block_mask)) <> 0

let clear t =
  (* Keeps the table and its keys: a reused space that repeats an
     execution then reaches allocation-free steady state, which the
     benchmark harness relies on when it re-runs a preallocated
     [Fast_core] handle thousands of times. *)
  Bytes.fill t.dense 0 t.dense_len '\000';
  clear_bits t;
  t.probes <- 0;
  t.wins <- 0;
  t.hwm <- 0

let reset t =
  t.table <- empty_table ();
  t.shift <- 63 - initial_slots_log2;
  t.used <- 0;
  clear t

let probe_count t = t.probes
let win_count t = t.wins
let high_water_mark t = t.hwm

(* Snapshots copy the occupied part of the dense prefix (up to the
   high-water mark) and the non-empty blocks of the table, so for the
   tiny spaces the systematic explorer drives (hwm of a few dozen
   cells) a save is a handful of words per DFS transition. *)

type snap = {
  s_probes : int;
  s_wins : int;
  s_hwm : int;
  s_dense : Bytes.t;  (* occupied prefix of the dense region *)
  s_blocks : (int * int) list;  (* non-empty blocks: key, bits *)
}

let save t =
  let tab = t.table in
  let blocks = ref [] in
  for i = 0 to (Array.length tab lsr 1) - 1 do
    let bits = tab.((2 * i) + 1) in
    if tab.(2 * i) >= 0 && bits <> 0 then
      blocks := (tab.(2 * i), bits) :: !blocks
  done;
  {
    s_probes = t.probes;
    s_wins = t.wins;
    s_hwm = t.hwm;
    s_dense = Bytes.sub t.dense 0 (min t.dense_len t.hwm);
    s_blocks = !blocks;
  }

let restore t s =
  (* Zero every cell that may have been touched since (or before) the
     snapshot, then write the saved state back. *)
  Bytes.fill t.dense 0 (min t.dense_len (max t.hwm s.s_hwm)) '\000';
  clear_bits t;
  Bytes.blit s.s_dense 0 t.dense 0 (Bytes.length s.s_dense);
  List.iter (fun (key, bits) -> set_block t key bits) s.s_blocks;
  t.probes <- s.s_probes;
  t.wins <- s.s_wins;
  t.hwm <- s.s_hwm
