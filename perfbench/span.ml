(* In-memory spans recorded around calls into the system's layers.

   A span is a name, a start and an end on the monotonic clock, the span
   that caused it ([parent], -1 for a root) and the request it serves
   ([req], -1 when none).  Spans live in growable parallel arrays and are
   written out once, at the end of the run; nothing is recorded unless
   {!enable} was called, so untraced runs pay one branch per call. *)

let enabled = ref false
let enable () = enabled := true

(* Run [f] with recording off (the untraced half of an overhead
   measurement), restoring the previous state. *)
let paused f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f

let cap = ref 0
let len = ref 0
let names = ref [||]
let starts = ref [||]
let stops = ref [||]
let parents = ref [||]
let reqs = ref [||]

let grow () =
  let c = max 1024 (2 * !cap) in
  let ext a fill = Array.append a (Array.make (c - Array.length a) fill) in
  names := ext !names "";
  starts := ext !starts 0.;
  stops := ext !stops 0.;
  parents := ext !parents (-1);
  reqs := ext !reqs (-1);
  cap := c

(* Open a span; the returned id closes it.  -1 when tracing is off. *)
let start ?(parent = -1) ?(req = -1) name =
  if not !enabled then -1
  else begin
    if !len = !cap then grow ();
    let id = !len in
    incr len;
    !names.(id) <- name;
    !parents.(id) <- parent;
    !reqs.(id) <- req;
    !starts.(id) <- Stat.now ();
    id
  end

let stop id = if id >= 0 then !stops.(id) <- Stat.now ()
let stop_at id t = if id >= 0 then !stops.(id) <- t

(* Record a span whose bounds were taken by the caller (e.g. a request
   that began at its scheduled arrival, before any call was made). *)
let record ?(parent = -1) ?(req = -1) name ~t0 ~t1 =
  if !enabled then begin
    if !len = !cap then grow ();
    let id = !len in
    incr len;
    !names.(id) <- name;
    !parents.(id) <- parent;
    !reqs.(id) <- req;
    !starts.(id) <- t0;
    !stops.(id) <- t1;
    id
  end
  else -1

let wrap ?parent ?req name f =
  let id = start ?parent ?req name in
  let r = f () in
  stop id;
  r

(* Self time of every span: its duration minus the time its children
   cover.  Children of one span run one after another here, so their
   durations add without overlap. *)
let self_times () =
  let child = Array.make !len 0. in
  for i = 0 to !len - 1 do
    let p = !parents.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (!stops.(i) -. !starts.(i))
  done;
  Array.init !len (fun i -> !stops.(i) -. !starts.(i) -. child.(i))

(* Self times, in seconds, of every span with this name. *)
let selfs_of name =
  let self = self_times () in
  let acc = ref [] in
  for i = !len - 1 downto 0 do
    if !names.(i) = name then acc := self.(i) :: !acc
  done;
  !acc

let count () = !len

(* One span per line, tab-separated: id, name, start and end in
   nanoseconds from the first span, parent id, request id. *)
let write path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\treq\n";
  let t0 = if !len > 0 then !starts.(0) else 0. in
  let ns t = Float.to_int ((t -. t0) *. 1e9) in
  for i = 0 to !len - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i !names.(i) (ns !starts.(i))
      (ns !stops.(i)) !parents.(i) !reqs.(i)
  done;
  close_out oc
