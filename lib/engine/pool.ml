let default_workers () = min 8 (Domain.recommended_domain_count ())

type outcome = Completed | Interrupted

let run_guarded ~workers ?(should_stop = fun () -> false) ~f ~consume tasks =
  let n = Array.length tasks in
  if n = 0 then Completed
  else begin
    let workers = max 1 (min workers n) in
    let next = Atomic.make 0 in
    let fatal = Atomic.make None in
    let lock = Mutex.create () in
    let body () =
      let rec loop () =
        if Atomic.get fatal = None && not (should_stop ()) then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            let result = f tasks.(i) in
            Mutex.protect lock (fun () -> consume i result);
            loop ()
          end
        end
      in
      try loop ()
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set fatal None (Some (e, bt)))
    in
    let domains = Array.init workers (fun _ -> Domain.spawn body) in
    Array.iter Domain.join domains;
    match Atomic.get fatal with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      (* Every claimed index was consumed (a raise would have set
         [fatal]), so tasks were left unsettled iff some were never
         claimed. *)
      if Atomic.get next < n then Interrupted else Completed
  end
