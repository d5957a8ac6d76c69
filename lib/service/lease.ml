type entry = {
  mutable holder : int option;
  epoch : int;
  mutable expires : float;
  token : int;
}

type t = {
  ttl : float;
  table : (int, entry) Hashtbl.t;  (* name -> live lease *)
  tokens : (int, int) Hashtbl.t;  (* nonzero token -> name *)
  mutable next_epoch : int;
}

let create ~ttl_s () =
  {
    ttl = Float.max 0.001 ttl_s;
    table = Hashtbl.create 64;
    tokens = Hashtbl.create 64;
    next_epoch = 1;
  }

let ttl_s t = t.ttl
let ttl_ms t = int_of_float (Float.round (t.ttl *. 1000.))

let unbind_token t e = if e.token <> 0 then Hashtbl.remove t.tokens e.token

let remove t name =
  match Hashtbl.find_opt t.table name with
  | None -> ()
  | Some e ->
    unbind_token t e;
    Hashtbl.remove t.table name

let grant t ~now ~name ~holder ~token =
  remove t name;
  let epoch = t.next_epoch in
  t.next_epoch <- epoch + 1;
  Hashtbl.replace t.table name { holder; epoch; expires = now +. t.ttl; token };
  if token <> 0 then Hashtbl.replace t.tokens token name;
  epoch

let restore t ~now ~name ~epoch ~token =
  remove t name;
  Hashtbl.replace t.table name
    { holder = None; epoch; expires = now +. t.ttl; token };
  if token <> 0 then Hashtbl.replace t.tokens token name;
  if epoch >= t.next_epoch then t.next_epoch <- epoch + 1

let set_next_epoch t e = if e > t.next_epoch then t.next_epoch <- e

let renew t ~now ~holder =
  (* A lease past its TTL but still in the table renews: only the sweep
     kills leases, so renew-vs-sweep has one arbiter (the table). *)
  let n = ref 0 in
  Hashtbl.to_seq_values t.table
  |> Seq.iter (fun e ->
         if e.holder = Some holder then begin
           e.expires <- now +. t.ttl;
           incr n
         end);
  !n

let release t ~name ~epoch =
  match Hashtbl.find_opt t.table name with
  | None -> `Unknown
  | Some e when e.epoch <> epoch -> `Stale
  | Some e ->
    unbind_token t e;
    Hashtbl.remove t.table name;
    `Released

let expire_due t ~now =
  let due =
    Hashtbl.to_seq t.table
    |> Seq.filter (fun (_, e) -> e.expires <= now)
    |> List.of_seq
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.map
    (fun (name, e) ->
      unbind_token t e;
      Hashtbl.remove t.table name;
      (name, e.epoch, e.holder, e.token))
    due

let rebind t ~now ~name ~epoch ~holder =
  match Hashtbl.find_opt t.table name with
  | Some e when e.epoch = epoch ->
    e.holder <- Some holder;
    e.expires <- now +. t.ttl;
    true
  | _ -> false

let find_token t ~token =
  if token = 0 then None
  else
    match Hashtbl.find_opt t.tokens token with
    | None -> None
    | Some name -> (
      match Hashtbl.find_opt t.table name with
      | Some e when e.token = token -> Some (name, e.epoch)
      | _ -> None)

let epoch_of t ~name =
  Option.map (fun e -> e.epoch) (Hashtbl.find_opt t.table name)

let holder_of t ~name =
  Option.map (fun e -> e.holder) (Hashtbl.find_opt t.table name)

let expires_of t ~name =
  Option.map (fun e -> e.expires) (Hashtbl.find_opt t.table name)

let held t = Hashtbl.length t.table

(* Deep-copy snapshots for the model checker, which explores the table's
   transition graph by DFS and must rewind it exactly. *)

type snapshot = {
  snap_entries : (int * int * int option * float * int) list;
      (* name, epoch, holder, expires, token — sorted by name *)
  snap_next_epoch : int;
}

let snapshot t =
  {
    snap_entries =
      Hashtbl.to_seq t.table
      |> Seq.map (fun (name, e) -> (name, e.epoch, e.holder, e.expires, e.token))
      |> List.of_seq
      |> List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> Int.compare a b);
    snap_next_epoch = t.next_epoch;
  }

let restore_snapshot t s =
  Hashtbl.reset t.table;
  Hashtbl.reset t.tokens;
  List.iter
    (fun (name, epoch, holder, expires, token) ->
      Hashtbl.replace t.table name { holder; epoch; expires; token };
      if token <> 0 then Hashtbl.replace t.tokens token name)
    s.snap_entries;
  t.next_epoch <- s.snap_next_epoch
