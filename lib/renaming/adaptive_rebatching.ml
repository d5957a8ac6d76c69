(* Race up powers of two with full backup-free GetName calls, then
   binary-search the winning interval (§5.1).  State: st.(off) = phase
   (0 race / 1 crunch / 2 release in flight), +1 = l, +2 = a, +3 = b,
   +4 = held name, +5 = current object, +6 = batch, +7 = probe,
   +8 = superseded name being released.

   A crunch hit at midpoint d lowers b to d and supersedes the held
   name.  One-shot, the superseded name stays taken, as in the paper;
   with [releasing] it is reset first (one step), the long-lived mode
   where abandoned names would leak the namespace across epochs. *)

let machine_of ~releasing space =
  let g = Object_space.geometry space in
  let start_obj st off (io : Machine.io) pid d =
    (match io.emit with
    | Some f -> f (Events.Object_visited { obj = d })
    | None -> ());
    st.(off + 5) <- d;
    st.(off + 6) <- 0;
    st.(off + 7) <- 1;
    g.batch_offset.(d).(0) + io.draw pid g.batch_size.(d).(0)
  in
  (* Crunch loop head: [a >= b] settles on the held name. *)
  let crunch st off io pid =
    let a = st.(off + 2) and b = st.(off + 3) in
    if a >= b then Machine.finished st.(off + 4)
    else start_obj st off io pid ((a + b) / 2)
  in
  let init st off io pid =
    st.(off) <- 0;
    st.(off + 1) <- 0;
    start_obj st off io pid 1
  in
  let resume st off (io : Machine.io) pid loc won =
    if st.(off) = 2 then begin
      let obj = Option.value ~default:0 (Object_space.owner_of_name space loc) in
      (match io.emit with
      | Some f -> f (Events.Name_released { obj; name = loc })
      | None -> ());
      st.(off) <- 1;
      crunch st off io pid
    end
    else begin
      let d = st.(off + 5) and i = st.(off + 6) in
      (match io.emit with
      | Some f -> f (Events.Probe { obj = d; batch = i; location = loc; won })
      | None -> ());
      if won then begin
        (match io.emit with
        | Some f -> f (Events.Name_acquired { obj = d; name = loc })
        | None -> ());
        if st.(off) = 0 then begin
          (* race success at level l: crunch [2^(l-1)+1, 2^l] *)
          let l = st.(off + 1) in
          if l = 0 then Machine.finished loc
          else begin
            st.(off) <- 1;
            st.(off + 2) <- (1 lsl (l - 1)) + 1;
            st.(off + 3) <- 1 lsl l;
            st.(off + 4) <- loc;
            crunch st off io pid
          end
        end
        else begin
          (* crunch hit at midpoint d: lower b, supersede the name *)
          let old = st.(off + 4) in
          st.(off + 3) <- d;
          st.(off + 4) <- loc;
          if releasing then begin
            st.(off) <- 2;
            st.(off + 8) <- old;
            Machine.release
          end
          else crunch st off io pid
        end
      end
      else begin
        (* advance inside object d: next probe, next batch, or give up *)
        let j = st.(off + 7) + 1 in
        if j <= g.budget.(d).(i) then begin
          st.(off + 7) <- j;
          g.batch_offset.(d).(i) + io.draw pid g.batch_size.(d).(i)
        end
        else begin
          (match io.emit with
          | Some f -> f (Events.Batch_failed { obj = d; batch = i })
          | None -> ());
          if i < g.kappa.(d) then begin
            st.(off + 6) <- i + 1;
            st.(off + 7) <- 1;
            g.batch_offset.(d).(i + 1) + io.draw pid g.batch_size.(d).(i + 1)
          end
          else if st.(off) = 0 then begin
            (* race: R_{2^l} failed, try the next level *)
            let l = st.(off + 1) + 1 in
            if 1 lsl l > g.top then Machine.finished_none
            else begin
              st.(off + 1) <- l;
              start_obj st off io pid (1 lsl l)
            end
          end
          else begin
            (* crunch miss at midpoint d: raise a *)
            st.(off + 2) <- d + 1;
            crunch st off io pid
          end
        end
      end
    end
  in
  { Machine.label = "adaptive"; slots = 9; init; resume }

let machine space = machine_of ~releasing:false space
let machine_releasing space = machine_of ~releasing:true space
let get_name env space = Machine.drive (machine space) env
let get_name_releasing env space = Machine.drive (machine_releasing space) env
