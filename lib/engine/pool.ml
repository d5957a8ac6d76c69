let default_workers () = min 8 (Domain.recommended_domain_count ())

type outcome = Completed | Interrupted

let run_guarded ~workers ?watchdog ?(should_stop = fun () -> false)
    ?(grace = 2.0) ?(on_abandon = fun (_ : Watchdog.view) -> ()) ~f ~consume
    tasks =
  let n = Array.length tasks in
  if n = 0 then Completed
  else begin
    let workers = max 1 (min workers n) in
    let next = Atomic.make 0 in
    let fatal = Atomic.make None in
    let lock = Mutex.create () in
    let settled = Array.make n false in
    let done_flags = Array.init workers (fun _ -> Atomic.make false) in
    let zombies = Array.init workers (fun _ -> Atomic.make false) in
    (* Settle task [i] exactly once, under the lock shared with every
       other settle — late results from abandoned workers fall through. *)
    let settle i g =
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          if not settled.(i) then begin
            settled.(i) <- true;
            g ()
          end)
    in
    let body w =
      let rec loop () =
        if
          (not (Atomic.get zombies.(w)))
          && Atomic.get fatal = None
          && not (should_stop ())
        then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (match f ~worker:w i tasks.(i) with
            | result -> settle i (fun () -> consume i result)
            | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set fatal None (Some (e, bt))));
            loop ()
          end
        end
      in
      (try loop ()
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set fatal None (Some (e, bt))));
      Atomic.set done_flags.(w) true
    in
    let domains = Array.init workers (fun w -> Domain.spawn (fun () -> body w)) in
    let abandoned = Array.make workers false in
    (match watchdog with
    | None -> Array.iter Domain.join domains
    | Some wd ->
      let deadline = Watchdog.timeout wd +. Float.max 0. grace in
      let rec wait () =
        let pending = ref false in
        Array.iteri
          (fun w _ ->
            if (not abandoned.(w)) && not (Atomic.get done_flags.(w)) then begin
              match Watchdog.current wd ~worker:w with
              | Some v when v.Watchdog.elapsed > deadline ->
                (* The worker is stuck inside the job past all patience:
                   settle its task as failed and stop waiting for it.
                   The zombie flag makes the domain exit its claim loop
                   if the computation ever returns. *)
                Atomic.set zombies.(w) true;
                abandoned.(w) <- true;
                settle v.Watchdog.index (fun () -> on_abandon v)
              | _ -> pending := true
            end)
          domains;
        if !pending then begin
          Unix.sleepf 0.02;
          wait ()
        end
      in
      wait ();
      Array.iteri (fun w d -> if not abandoned.(w) then Domain.join d) domains);
    match Atomic.get fatal with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      let incomplete =
        Mutex.lock lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock lock)
          (fun () -> Array.exists not settled)
      in
      if incomplete then Interrupted else Completed
  end
