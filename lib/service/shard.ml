type shard = {
  index : int;
  ll : Renaming.Long_lived.t;
  env : Renaming.Env.t;  (* carries the shard's coin stream *)
  mutable acquires : int;
  mutable releases : int;
  mutable failures : int;
  mutable probes : int;
}

type t = {
  space : Sim.Location_space.t;
  pool : shard array;
  capacity : int;
  per_shard : int;
  route_salt : Prng.Splitmix.t;  (* never advanced; split_at per client *)
}

let create ?(epsilon = 1.0) ?(t0 = 3) ~shards ~capacity ~seed () =
  if shards < 1 then invalid_arg "Shard.create: shards < 1";
  if capacity < 1 then invalid_arg "Shard.create: capacity < 1";
  (* All shards share one geometry; probe it once to size the space. *)
  let probe = Renaming.Rebatching.make ~epsilon ~t0 ~n:capacity () in
  let m = Renaming.Rebatching.size probe in
  (* One bit per TAS object: the whole namespace is the dense prefix. *)
  let space = Sim.Location_space.create ~capacity:(shards * m) () in
  let root = Prng.Splitmix.of_int seed in
  (* [split] advances [root], so the routing stream below is disjoint
     from every per-shard coin stream derived by [split_at]. *)
  let route_salt = Prng.Splitmix.split root in
  let pool =
    Array.init shards (fun index ->
        let ll =
          Renaming.Long_lived.make ~epsilon ~t0 ~base:(index * m) ~n:capacity ()
        in
        let rng = Prng.Splitmix.split_at root index in
        let env =
          Renaming.Env.make ~pid:index
            ~tas:(Sim.Location_space.tas space)
            ~reset:(Sim.Location_space.release space)
            ~random_int:(fun bound -> Prng.Splitmix.int rng bound)
            ()
        in
        {
          index;
          ll;
          env;
          acquires = 0;
          releases = 0;
          failures = 0;
          probes = 0;
        })
  in
  { space; pool; capacity; per_shard = m; route_salt }

let shards t = Array.length t.pool
let capacity t = t.capacity
let per_shard_namespace t = t.per_shard
let namespace t = Array.length t.pool * t.per_shard

(* Diffuse the client id through the seed tree so routing is a stable
   pure function of (seed, client) but adjacent ids do not pile onto
   one shard. *)
let shard_of_client t client =
  let s = Prng.Splitmix.split_at t.route_salt (client land max_int) in
  Prng.Splitmix.int s (Array.length t.pool)

let shard_of_name t name =
  if name < 0 || name >= namespace t then None else Some (name / t.per_shard)

let acquire t ~shard ~client:_ =
  let s = t.pool.(shard) in
  let before = Sim.Location_space.probe_count t.space in
  let got = Renaming.Long_lived.acquire s.env s.ll in
  s.probes <- s.probes + Sim.Location_space.probe_count t.space - before;
  (match got with
  | Some _ -> s.acquires <- s.acquires + 1
  | None -> s.failures <- s.failures + 1);
  got

(* Recovery: re-occupy a journaled grant's cell directly.  The probe
   machinery is bypassed on purpose — the name was already won once;
   recovery only restores the occupancy bit so post-restart probes
   walk around it.  The range check comes first: the space would take
   a location past its dense prefix into its sparse tail. *)
let retake t ~name =
  match shard_of_name t name with
  | None -> `Outside
  | Some _ -> if Sim.Location_space.tas t.space name then `Taken else `Already

let release t ~name =
  match shard_of_name t name with
  | None -> invalid_arg "Shard.release: name outside the pool's namespace"
  | Some i ->
    let s = t.pool.(i) in
    Renaming.Long_lived.release s.env s.ll name;
    s.releases <- s.releases + 1

let sum t f = Array.fold_left (fun acc s -> acc + f s) 0 t.pool
let acquires t = sum t (fun s -> s.acquires)
let releases t = sum t (fun s -> s.releases)
let failures t = sum t (fun s -> s.failures)
let probes t = sum t (fun s -> s.probes)
let taken_count t = Sim.Location_space.win_count t.space
let leaked t ~held = taken_count t - held

let stats t =
  let per_shard =
    Array.to_list t.pool
    |> List.map (fun s ->
           Jsonu.Obj
             [
               ("shard", Jsonu.Int s.index);
               ("acquires", Jsonu.Int s.acquires);
               ("releases", Jsonu.Int s.releases);
               ("failures", Jsonu.Int s.failures);
               ("probes", Jsonu.Int s.probes);
             ])
  in
  Jsonu.Obj
    [
      ("shards", Jsonu.Int (shards t));
      ("capacity", Jsonu.Int t.capacity);
      ("per_shard_namespace", Jsonu.Int t.per_shard);
      ("namespace", Jsonu.Int (namespace t));
      ("acquires", Jsonu.Int (acquires t));
      ("releases", Jsonu.Int (releases t));
      ("failures", Jsonu.Int (failures t));
      ("probes", Jsonu.Int (probes t));
      ("taken", Jsonu.Int (taken_count t));
      ("per_shard", Jsonu.Arr per_shard);
    ]
