let names = [ "rebatching"; "adaptive"; "fast" ]

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
          Renaming.Object_space.ladder_capacity space ))
  | "fast" ->
    Ok
      (fun ~n:_ ~t0 ->
        let space = Renaming.Object_space.create ~t0 () in
        ( (fun env -> Renaming.Fast_adaptive_rebatching.get_name env space),
          Renaming.Object_space.ladder_capacity space ))
  | other -> Error (Printf.sprintf "unknown algorithm %S" other)
