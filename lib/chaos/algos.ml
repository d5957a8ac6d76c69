let names = [ "rebatching"; "adaptive"; "fast" ]

(* Index 16 on the object ladder mirrors the shm test suite: the
   adaptive ladder's reachable depth grows like O(log log n), so 16
   covers any feasible process count. *)
let ladder_depth = 16

let find = function
  | "rebatching" ->
    Ok
      (fun ~n ~t0 ->
        let instance = Renaming.Rebatching.make ~t0 ~n () in
        ( (fun env -> Renaming.Rebatching.get_name env instance),
          Renaming.Rebatching.size instance ))
  | "adaptive" ->
    Ok
      (fun ~n:_ ~t0 ->
        let space = Renaming.Object_space.create ~t0 () in
        ( (fun env -> Renaming.Adaptive_rebatching.get_name env space),
          Renaming.Object_space.total_size space ladder_depth ))
  | "fast" ->
    Ok
      (fun ~n:_ ~t0 ->
        let space = Renaming.Object_space.create ~t0 () in
        ( (fun env -> Renaming.Fast_adaptive_rebatching.get_name env space),
          Renaming.Object_space.total_size space ladder_depth ))
  | other -> Error (Printf.sprintf "unknown algorithm %S" other)
