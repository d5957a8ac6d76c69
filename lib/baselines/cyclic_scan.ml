module M = Renaming.Machine

(* State: st.(off) = start, st.(off+1) = locations tried after it. *)
let machine ~m =
  if m < 1 then invalid_arg "Cyclic_scan.get_name: m must be >= 1";
  let init st off (io : M.io) pid =
    let start = io.draw pid m in
    st.(off) <- start;
    st.(off + 1) <- 0;
    start
  in
  let resume st off (io : M.io) _pid loc won =
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
      let i = st.(off + 1) + 1 in
      if i >= m then M.finished_none
      else begin
        st.(off + 1) <- i;
        (st.(off) + i) mod m
      end
    end
  in
  { M.label = "cyclic-scan"; slots = 2; init; resume }

let get_name env ~m = M.drive (machine ~m) env
