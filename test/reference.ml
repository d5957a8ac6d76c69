(* Independent reference implementations: each algorithm transcribed
   directly from the paper's pseudocode as a closure over [Env.t].  The
   library states every algorithm once, as a [Renaming.Machine]; these
   transcriptions are the oracle the test suite checks the machines
   against — same draws, same probes, same names, same event stream. *)

open Renaming

(* ReBatching (§4, Figure 1). *)
module Rebatching = struct
  let try_batch (env : Env.t) t i =
    let b = Rebatching.batch_size t i in
    let off = Rebatching.batch_offset t i in
    let budget = Rebatching.probe_budget t i in
    let obj = Rebatching.obj t in
    let rec probe j =
      if j > budget || b = 0 then begin
        env.emit (Events.Batch_failed { obj; batch = i });
        None
      end
      else begin
        let x = env.random_int b in
        let loc = off + x in
        let won = env.tas loc in
        env.emit (Events.Probe { obj; batch = i; location = loc; won });
        if won then begin
          env.emit (Events.Name_acquired { obj; name = loc });
          Some loc
        end
        else probe (j + 1)
      end
    in
    probe 1

  let backup_scan (env : Env.t) t =
    let obj = Rebatching.obj t in
    let base = Rebatching.base t in
    env.emit (Events.Backup_entered { obj });
    let rec scan u =
      if u >= base + Rebatching.size t then None
      else begin
        let won = env.tas u in
        env.emit (Events.Probe { obj; batch = -1; location = u; won });
        if won then begin
          env.emit (Events.Name_acquired { obj; name = u });
          Some u
        end
        else scan (u + 1)
      end
    in
    scan base

  let get_name ?(backup = true) (env : Env.t) t =
    let rec batches i =
      if i > Rebatching.kappa t then if backup then backup_scan env t else None
      else
        match try_batch env t i with
        | Some u -> Some u
        | None -> batches (i + 1)
    in
    batches 0
end

let drop_name (env : Env.t) space name =
  env.reset name;
  let obj = Option.value ~default:0 (Object_space.owner_of_name space name) in
  env.emit (Events.Name_released { obj; name })

(* AdaptiveReBatching (§5.1). *)
module Adaptive_rebatching = struct
  let rebatch_get_name (env : Env.t) space i =
    env.emit (Events.Object_visited { obj = i });
    Rebatching.get_name ~backup:false env (Object_space.obj space i)

  (* Race phase: find the first l with R_{2^l}.GetName successful.
     Returns [(l, name)]. *)
  let race (env : Env.t) space =
    let rec go l =
      let i = 1 lsl l in
      if i > Object_space.cap space then None
      else
        match rebatch_get_name env space i with
        | Some u -> Some (l, u)
        | None -> go (l + 1)
    in
    go 0

  (* Crunch phase: binary search on object indices a..b, where the
     process already holds [name] from R_b.  A successful GetName on the
     midpoint lowers b, a failure raises a.  When [drop] is provided, a
     superseded name is returned to the pool (one reset step). *)
  let crunch (env : Env.t) space ~drop ~a ~b ~name =
    let supersede old_name =
      match drop with None -> () | Some f -> f old_name
    in
    let rec go a b name =
      if a >= b then name
      else begin
        let d = (a + b) / 2 in
        match rebatch_get_name env space d with
        | Some u ->
          supersede name;
          go a d u
        | None -> go (d + 1) b name
      end
    in
    go a b name

  let get_name_with ~drop (env : Env.t) space =
    match race env space with
    | None -> None
    | Some (0, u) -> Some u (* name from R_1: nothing below to search *)
    | Some (l, u) ->
      let a = (1 lsl (l - 1)) + 1 and b = 1 lsl l in
      Some (crunch env space ~drop ~a ~b ~name:u)

  let get_name (env : Env.t) space = get_name_with ~drop:None env space

  let get_name_releasing (env : Env.t) space =
    get_name_with ~drop:(Some (drop_name env space)) env space
end

(* FastAdaptiveReBatching (§5.2, Figure 2).  [try_get_name env space a
   t] is [R_a.TryGetName(t)]; [kappa space a] is the paper's kappa(a). *)
module Fast_adaptive_rebatching = struct
  let try_get_name (env : Env.t) space a t =
    let r = Object_space.obj space a in
    if t > Renaming.Rebatching.kappa r then None
    else Rebatching.try_batch env r t

  let kappa space a = Renaming.Rebatching.kappa (Object_space.obj space a)

  (* Search(a, b, u, t) of Figure 2.  Preconditions: a < b, [u] is a
     name the process holds from R_b, and it has already executed
     R_a.TryGetName(j) for j = 0 .. t-1. *)
  let rec search (env : Env.t) space ~drop ~a ~b ~u ~t =
    if t > kappa space a then u
    else
      match try_get_name env space a t with
      | Some u' ->
        (match drop with None -> () | Some f -> f u);
        u'
      | None ->
        let d = (a + b + 1) / 2 in
        (* ceil ((a+b)/2) *)
        let u = if d < b then search env space ~drop ~a:d ~b ~u ~t:0 else u in
        if Object_space.in_object space d ~name:u then
          search env space ~drop ~a ~b:d ~u ~t:(t + 1)
        else u

  let get_name_with ~drop (env : Env.t) space =
    let r1 = Object_space.obj space 1 in
    if Renaming.Rebatching.epsilon r1 <> 1.0 then
      invalid_arg "Fast_adaptive_rebatching: object space must use epsilon = 1";
    (* Lines 1-5: race up the powers of two with single TryGetName(0)
       calls. *)
    let rec race l =
      let i = 1 lsl l in
      if i > Object_space.cap space then None
      else begin
        env.emit (Events.Object_visited { obj = i });
        match try_get_name env space i 0 with
        | Some u -> Some (l, u)
        | None -> race (l + 1)
      end
    in
    match race 0 with
    | None -> None
    | Some (l, u) ->
      (* Lines 6-9: repeatedly Search the left half while the current
         name still comes from the current upper-bound object. *)
      let rec crunch l u =
        if l >= 1 && Object_space.in_object space (1 lsl l) ~name:u then begin
          let u =
            search env space ~drop ~a:(1 lsl (l - 1)) ~b:(1 lsl l) ~u ~t:1
          in
          crunch (l - 1) u
        end
        else u
      in
      Some (crunch l u)

  let get_name (env : Env.t) space = get_name_with ~drop:None env space

  let get_name_releasing (env : Env.t) space =
    get_name_with ~drop:(Some (drop_name env space)) env space
end

(* Baselines. *)

let win (env : Env.t) ~obj loc =
  let won = env.tas loc in
  env.emit (Events.Probe { obj; batch = 0; location = loc; won });
  if won then env.emit (Events.Name_acquired { obj; name = loc });
  won

module Uniform_probe = struct
  let get_name (env : Env.t) ~m ~max_steps =
    let rec probe step =
      if step > max_steps then None
      else begin
        let loc = env.random_int m in
        if win env ~obj:0 loc then Some loc else probe (step + 1)
      end
    in
    probe 1
end

module Linear_scan = struct
  let get_name (env : Env.t) ~m =
    let rec scan loc =
      if loc >= m then None
      else if win env ~obj:0 loc then Some loc
      else scan (loc + 1)
    in
    scan 0
end

module Cyclic_scan = struct
  let get_name (env : Env.t) ~m =
    let start = env.random_int m in
    let rec scan i =
      if i >= m then None
      else begin
        let loc = (start + i) mod m in
        if win env ~obj:0 loc then Some loc else scan (i + 1)
      end
    in
    scan 0
end

module Adaptive_doubling = struct
  let get_name (env : Env.t) ?(probes_per_level = 4) space =
    let rec level i =
      if i > Object_space.cap space then None
      else begin
        env.emit (Events.Object_visited { obj = i });
        let r = Object_space.obj space i in
        let base = Renaming.Rebatching.base r in
        let m = Renaming.Rebatching.size r in
        let rec probe j =
          if j > probes_per_level then None
          else begin
            let loc = base + env.random_int m in
            if win env ~obj:i loc then Some loc else probe (j + 1)
          end
        in
        match probe 1 with Some u -> Some u | None -> level (i + 1)
      end
    in
    level 1
end
