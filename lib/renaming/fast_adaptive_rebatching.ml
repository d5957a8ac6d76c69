(* Figure 2 as a machine.  The recursive Search runs on an explicit
   per-process stack of (a, b, t) frames; object indices are bounded by
   [Object_space.max_index], so the recursion depth is at most ~log2 60
   and [stack_frames] is far beyond reach.  State: st.(off) = mode
   (0 race / 1 search / 2 release in flight), +1 = l, +2 = u (the held
   name), +3 = a, +4 = b, +5 = t, +6 = probe j, +7 = stack pointer,
   +8.. = frames, last = superseded name being released.

   A Search hit supersedes the held name.  One-shot, the superseded
   name stays taken, as in the paper; with [releasing] it is reset
   first (one step), the long-lived mode. *)

let stack_frames = 16
let header = 8
let release_slot = header + (3 * stack_frames)

let machine_of ~releasing space =
  if Rebatching.epsilon (Object_space.obj space 1) <> 1.0 then
    invalid_arg "Fast_adaptive_rebatching: object space must use epsilon = 1";
  let g = Object_space.geometry space in
  (* R_a.TryGetName(t): the first of its probes *)
  let draw st off (io : Machine.io) pid a t =
    st.(off + 6) <- 1;
    g.batch_offset.(a).(t) + io.draw pid g.batch_size.(a).(t)
  in
  let race_level st off (io : Machine.io) pid idx =
    (match io.emit with
    | Some f -> f (Events.Object_visited { obj = idx })
    | None -> ());
    draw st off io pid idx 0
  in
  (* Mutual recursion over pure control transfers; every path ends in a
     draw or a finish, and the depth is bounded by the explicit stack. *)
  let rec enter_search st off io pid a b t =
    if t > g.kappa.(a) then search_return st off io pid st.(off + 2)
    else begin
      st.(off) <- 1;
      st.(off + 3) <- a;
      st.(off + 4) <- b;
      st.(off + 5) <- t;
      draw st off io pid a t
    end
  and search_return st off io pid u =
    st.(off + 2) <- u;
    let sp = st.(off + 7) in
    if sp > 0 then begin
      let fr = off + header + (3 * (sp - 1)) in
      st.(off + 7) <- sp - 1;
      let a = st.(fr) and b = st.(fr + 1) and t = st.(fr + 2) in
      let d = (a + b + 1) / 2 in
      if Object_space.in_range g d u then enter_search st off io pid a d (t + 1)
      else search_return st off io pid u
    end
    else begin
      (* lines 6-9: Search the left half while the name still comes
         from the current upper-bound object *)
      let l = st.(off + 1) - 1 in
      st.(off + 1) <- l;
      crunch_step st off io pid l u
    end
  and crunch_step st off io pid l u =
    if l >= 1 && Object_space.in_range g (1 lsl l) u then
      enter_search st off io pid (1 lsl (l - 1)) (1 lsl l) 1
    else Machine.finished u
  in
  let init st off io pid =
    st.(off) <- 0;
    st.(off + 1) <- 0;
    st.(off + 2) <- -1;
    st.(off + 7) <- 0;
    race_level st off io pid 1
  in
  let resume st off (io : Machine.io) pid loc won =
    match st.(off) with
    | 0 ->
      (* lines 1-5, the race: probing batch 0 of R_{2^l} *)
      let l = st.(off + 1) in
      let idx = 1 lsl l in
      (match io.emit with
      | Some f -> f (Events.Probe { obj = idx; batch = 0; location = loc; won })
      | None -> ());
      if won then begin
        (match io.emit with
        | Some f -> f (Events.Name_acquired { obj = idx; name = loc })
        | None -> ());
        st.(off + 2) <- loc;
        crunch_step st off io pid l loc
      end
      else begin
        let j = st.(off + 6) + 1 in
        if j <= g.budget.(idx).(0) then begin
          st.(off + 6) <- j;
          g.batch_offset.(idx).(0) + io.draw pid g.batch_size.(idx).(0)
        end
        else begin
          (match io.emit with
          | Some f -> f (Events.Batch_failed { obj = idx; batch = 0 })
          | None -> ());
          let l = l + 1 in
          if 1 lsl l > g.top then Machine.finished_none
          else begin
            st.(off + 1) <- l;
            race_level st off io pid (1 lsl l)
          end
        end
      end
    | 1 ->
      (* Search: probing batch t of R_a *)
      let a = st.(off + 3) and b = st.(off + 4) and t = st.(off + 5) in
      (match io.emit with
      | Some f -> f (Events.Probe { obj = a; batch = t; location = loc; won })
      | None -> ());
      if won then begin
        (match io.emit with
        | Some f -> f (Events.Name_acquired { obj = a; name = loc })
        | None -> ());
        if releasing then begin
          st.(off + release_slot) <- st.(off + 2);
          st.(off + 2) <- loc;
          st.(off) <- 2;
          Machine.release
        end
        else search_return st off io pid loc
      end
      else begin
        let j = st.(off + 6) + 1 in
        if j <= g.budget.(a).(t) then begin
          st.(off + 6) <- j;
          g.batch_offset.(a).(t) + io.draw pid g.batch_size.(a).(t)
        end
        else begin
          (match io.emit with
          | Some f -> f (Events.Batch_failed { obj = a; batch = t })
          | None -> ());
          let d = (a + b + 1) / 2 in
          if d < b then begin
            let sp = st.(off + 7) in
            if sp >= stack_frames then
              invalid_arg "Fast_adaptive_rebatching: search stack overflow";
            let fr = off + header + (3 * sp) in
            st.(fr) <- a;
            st.(fr + 1) <- b;
            st.(fr + 2) <- t;
            st.(off + 7) <- sp + 1;
            enter_search st off io pid d b 0
          end
          else begin
            let u = st.(off + 2) in
            if Object_space.in_range g d u then enter_search st off io pid a d (t + 1)
            else search_return st off io pid u
          end
        end
      end
    | _ ->
      (* the superseded name [loc] is back in the pool *)
      let obj = Option.value ~default:0 (Object_space.owner_of_name space loc) in
      (match io.emit with
      | Some f -> f (Events.Name_released { obj; name = loc })
      | None -> ());
      search_return st off io pid st.(off + 2)
  in
  { Machine.label = "fast-adaptive"; slots = release_slot + 1; init; resume }

let machine space = machine_of ~releasing:false space
let machine_releasing space = machine_of ~releasing:true space
let get_name env space = Machine.drive (machine space) env
let get_name_releasing env space = Machine.drive (machine_releasing space) env
