type action = Step of int | Crash of int

type op = Tas_op | Reset_op | Read_op | Write_op

type callbacks = {
  on_wait : pid:int -> loc:int -> op:op -> unit;
  on_tas : loc:int -> won:bool -> unit;
  on_settle : pid:int -> unit;
  pick : unit -> action;
}

type ctx = {
  procs : int;
  rng : Prng.Splitmix.t;
  location_taken : int -> bool;
  register_value : int -> int;
}
type t = { name : string; make : ctx -> callbacks }

let no_tas ~loc:_ ~won:_ = ()

let random =
  let make ctx =
    let waiting = Dynset.create () in
    {
      on_wait = (fun ~pid ~loc:_ ~op:_ -> Dynset.add waiting pid);
      on_tas = no_tas;
      on_settle = (fun ~pid -> Dynset.remove waiting pid);
      pick = (fun () -> Step (Dynset.any waiting ctx.rng));
    }
  in
  { name = "random"; make }

let round_robin =
  let make _ctx =
    let waiting = Dynset.create () in
    let queue = Queue.create () in
    let on_wait ~pid ~loc:_ ~op:_ =
      if not (Dynset.mem waiting pid) then begin
        Dynset.add waiting pid;
        Queue.push pid queue
      end
    in
    let rec pick () =
      (* Skip queue entries for processes that settled since enqueue. *)
      let pid = Queue.pop queue in
      if Dynset.mem waiting pid then begin
        Queue.push pid queue;
        Step pid
      end
      else pick ()
    in
    {
      on_wait;
      on_tas = no_tas;
      on_settle = (fun ~pid -> Dynset.remove waiting pid);
      pick;
    }
  in
  { name = "round-robin"; make }

let layered =
  let make ctx =
    let waiting = Dynset.create () in
    let layer = ref [||] in
    let cursor = ref 0 in
    let rec pick () =
      if !cursor >= Array.length !layer then begin
        (* Start a new layer: a fresh uniformly random permutation of the
           processes waiting right now (§6's layered schedule). *)
        let snapshot = Dynset.to_array waiting in
        Prng.Shuffle.shuffle_in_place ctx.rng snapshot;
        layer := snapshot;
        cursor := 0;
        pick ()
      end
      else begin
        let pid = !layer.(!cursor) in
        incr cursor;
        if Dynset.mem waiting pid then Step pid else pick ()
      end
    in
    {
      on_wait = (fun ~pid ~loc:_ ~op:_ -> Dynset.add waiting pid);
      on_tas = no_tas;
      on_settle = (fun ~pid -> Dynset.remove waiting pid);
      pick;
    }
  in
  { name = "layered"; make }

(* Greedy's bookkeeping, free of polymorphic hashing and sized once per
   run from the process count.  Waiting processes pending on the same
   free location form a group; each open group has a member, so at most
   [procs] are open at once, and their ids come from a stack of free
   ids.  A group's members form a list linked through pid-indexed arrays
   (a process is in at most one group) that stands in for a {!Dynset}'s
   element array: head to tail is index order, [join] appends, and
   [leave] moves the tail into the leaver's place, so the tail is the
   member [Dynset.first] would pick.  The one map, location -> group id,
   cannot be an array (adaptive runs probe locations up to ~1.3e10): it
   is an open-addressing table of group ids keyed through [loc],
   Fibonacci-hashed with {!Location_space}'s multiplier, linearly
   probed, at most half full, and deleted from by backward shift so no
   tombstones build up. *)
module Groups = struct
  type t = {
    group : int array;  (* pid -> its group id, -1 if none *)
    prev : int array;  (* pid -> previous member, -1 at the head *)
    next : int array;  (* pid -> next member, -1 at the tail *)
    head : int array;  (* id -> first member, -1 if empty *)
    tail : int array;  (* id -> last member, -1 if empty *)
    loc : int array;  (* id -> the location its members target *)
    free : int array;  (* free.(0 .. nfree-1) are the ids not in use *)
    mutable nfree : int;
    slots : int array;  (* open group ids by location hash, -1 empty *)
    shift : int;  (* 63 - log2 (length slots) *)
  }

  let golden = 0x4F1BBCDCBFA53E0B

  let create procs =
    let bits = ref 1 in
    while 1 lsl !bits < 2 * procs do
      incr bits
    done;
    {
      group = Array.make procs (-1);
      prev = Array.make procs (-1);
      next = Array.make procs (-1);
      head = Array.make procs (-1);
      tail = Array.make procs (-1);
      loc = Array.make procs 0;
      free = Array.init procs (fun i -> procs - 1 - i);
      nfree = procs;
      slots = Array.make (1 lsl !bits) (-1);
      shift = 63 - !bits;
    }

  let home t loc = (loc * golden) lsr t.shift

  (* The slot holding [loc]'s group, or the empty slot ending its run. *)
  let rec scan t mask loc i =
    let id = t.slots.(i) in
    if id < 0 || t.loc.(id) = loc then i else scan t mask loc ((i + 1) land mask)

  let slot t loc = scan t (Array.length t.slots - 1) loc (home t loc)

  (* The id of the open group on [loc], -1 if none. *)
  let find t loc = t.slots.(slot t loc)

  (* The id of the group pending on [loc], opened empty if there is none. *)
  let at t loc =
    let i = slot t loc in
    if t.slots.(i) >= 0 then t.slots.(i)
    else begin
      t.nfree <- t.nfree - 1;
      let id = t.free.(t.nfree) in
      t.loc.(id) <- loc;
      t.slots.(i) <- id;
      id
    end

  (* Close group [id], which must be empty: pull later entries of its
     probe run back into the hole, each one whose home does not lie
     cyclically after the hole. *)
  let close t id =
    let mask = Array.length t.slots - 1 in
    let hole = ref (slot t t.loc.(id)) in
    let j = ref ((!hole + 1) land mask) in
    while t.slots.(!j) >= 0 do
      let moved = t.slots.(!j) in
      if (!j - home t t.loc.(moved)) land mask >= (!j - !hole) land mask then begin
        t.slots.(!hole) <- moved;
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    t.slots.(!hole) <- -1;
    t.free.(t.nfree) <- id;
    t.nfree <- t.nfree + 1

  let fewer_than_two t id = t.head.(id) = t.tail.(id)
  let is_empty t id = t.tail.(id) < 0
  let last t id = t.tail.(id)

  let join t id pid =
    let tl = t.tail.(id) in
    t.prev.(pid) <- tl;
    t.next.(pid) <- -1;
    if tl >= 0 then t.next.(tl) <- pid else t.head.(id) <- pid;
    t.tail.(id) <- pid;
    t.group.(pid) <- id

  let leave t id pid =
    let tl = t.tail.(id) in
    let before = t.prev.(tl) in
    t.tail.(id) <- before;
    if before >= 0 then t.next.(before) <- -1 else t.head.(id) <- -1;
    if tl <> pid then begin
      let p = t.prev.(pid) and n = t.next.(pid) in
      t.prev.(tl) <- p;
      t.next.(tl) <- n;
      if p >= 0 then t.next.(p) <- tl else t.head.(id) <- tl;
      if n >= 0 then t.prev.(n) <- tl else t.tail.(id) <- tl
    end;
    t.group.(pid) <- -1

  (* Apply [f] to every member, head to tail, leaving the group empty. *)
  let disband t id f =
    let pid = ref t.head.(id) in
    while !pid >= 0 do
      t.group.(!pid) <- -1;
      f !pid;
      pid := t.next.(!pid)
    done;
    t.head.(id) <- -1;
    t.tail.(id) <- -1
end

let greedy_collision =
  let make ctx =
    let waiting = Dynset.create () in
    (* Processes whose pending location is already taken: stepping them
       wastes their probe for sure. *)
    let losers = Dynset.create () in
    (* Groups of processes pending on the same still-free location. *)
    let groups = Groups.create ctx.procs in
    (* Ids of the groups with >= 2 members.  Live ids map one-to-one onto
       locations, so [first] picks the location a location-keyed set
       with the same history would. *)
    let contended = Dynset.create () in
    let detach pid =
      Dynset.remove losers pid;
      let id = groups.group.(pid) in
      if id >= 0 then begin
        Groups.leave groups id pid;
        if Groups.fewer_than_two groups id then Dynset.remove contended id;
        if Groups.is_empty groups id then Groups.close groups id
      end
    in
    let on_wait ~pid ~loc ~op =
      detach pid;
      Dynset.add waiting pid;
      match op with
      | Reset_op | Read_op | Write_op ->
        (* non-TAS operations carry no win/lose leverage; leave the pid in
           the generic waiting pool *)
        ()
      | Tas_op ->
        if ctx.location_taken loc then Dynset.add losers pid
        else begin
          let id = Groups.at groups loc in
          Groups.join groups id pid;
          if not (Groups.fewer_than_two groups id) then
            Dynset.add contended id
        end
    in
    let on_tas ~loc ~won =
      if won then
        (* The location just got taken: everyone still aiming at it is now
           a guaranteed loser. *)
        let id = Groups.find groups loc in
        if id >= 0 then begin
          Groups.disband groups id (Dynset.add losers);
          Dynset.remove contended id;
          Groups.close groups id
        end
    in
    let on_settle ~pid =
      detach pid;
      Dynset.remove waiting pid
    in
    let pick () =
      if not (Dynset.is_empty losers) then Step (Dynset.first losers)
      else if not (Dynset.is_empty contended) then
        Step (Groups.last groups (Dynset.first contended))
      else Step (Dynset.any waiting ctx.rng)
    in
    { on_wait; on_tas; on_settle; pick }
  in
  { name = "greedy"; make }

let sequential =
  let make _ctx =
    let waiting = Dynset.create () in
    let cursor = ref 0 in
    let pick () =
      (* Processes never wait again after settling, so the cursor only
         moves forward. *)
      while not (Dynset.mem waiting !cursor) do
        incr cursor
      done;
      Step !cursor
    in
    {
      on_wait = (fun ~pid ~loc:_ ~op:_ -> Dynset.add waiting pid);
      on_tas = no_tas;
      on_settle = (fun ~pid -> Dynset.remove waiting pid);
      pick;
    }
  in
  { name = "sequential"; make }

let with_crashes ~fraction inner =
  if fraction < 0. || fraction >= 1. then
    invalid_arg "Adversary.with_crashes: fraction must be in [0, 1)";
  let make ctx =
    let cb = inner.make ctx in
    let waiting = Dynset.create () in
    let ever = Dynset.create () in
    (* distinct processes observed *)
    let crashed = ref 0 in
    let on_wait ~pid ~loc ~op =
      Dynset.add ever pid;
      Dynset.add waiting pid;
      cb.on_wait ~pid ~loc ~op
    in
    let on_settle ~pid =
      Dynset.remove waiting pid;
      cb.on_settle ~pid
    in
    let pick () =
      let budget =
        int_of_float (Float.floor (fraction *. float_of_int (Dynset.size ever)))
      in
      (* Pace crashes at roughly the target fraction per decision so high
         fractions are reachable even on short executions. *)
      if
        !crashed < budget
        && (not (Dynset.is_empty waiting))
        && Prng.Splitmix.bernoulli ctx.rng (Float.max 0.05 fraction)
      then begin
        incr crashed;
        Crash (Dynset.any waiting ctx.rng)
      end
      else cb.pick ()
    in
    { on_wait; on_tas = cb.on_tas; on_settle; pick }
  in
  { name = Printf.sprintf "%s+crash%.2f" inner.name fraction; make }

let all_builtin = [ random; round_robin; layered; greedy_collision; sequential ]

let by_name name = List.find_opt (fun t -> t.name = name) all_builtin
