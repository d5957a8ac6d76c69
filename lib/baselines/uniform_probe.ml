module M = Renaming.Machine

(* State: st.(off) = probes made so far. *)
let machine ~m ~max_steps =
  if m < 1 then invalid_arg "Uniform_probe.get_name: m must be >= 1";
  if max_steps < 1 then
    invalid_arg "Uniform_probe.get_name: max_steps must be >= 1";
  let init st off (io : M.io) pid =
    st.(off) <- 1;
    io.draw pid m
  in
  let resume st off (io : M.io) pid loc won =
    (match io.emit with
    | Some f -> f (Renaming.Events.Probe { obj = 0; batch = 0; location = loc; won })
    | None -> ());
    if won then begin
      (match io.emit with
      | Some f -> f (Renaming.Events.Name_acquired { obj = 0; name = loc })
      | None -> ());
      M.finished loc
    end
    else begin
      let s = st.(off) + 1 in
      if s > max_steps then M.finished_none
      else begin
        st.(off) <- s;
        io.draw pid m
      end
    end
  in
  { M.label = "uniform"; slots = 1; init; resume }

let get_name env ~m ~max_steps = M.drive (machine ~m ~max_steps) env
