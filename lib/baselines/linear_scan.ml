module M = Renaming.Machine

let machine ~m =
  if m < 1 then invalid_arg "Linear_scan.get_name: m must be >= 1";
  let init _st _off _io _pid = 0 in
  let resume _st _off (io : M.io) _pid loc won =
    (match io.emit with
    | Some f -> f (Renaming.Events.Probe { obj = 0; batch = 0; location = loc; won })
    | None -> ());
    if won then begin
      (match io.emit with
      | Some f -> f (Renaming.Events.Name_acquired { obj = 0; name = loc })
      | None -> ());
      M.finished loc
    end
    else if loc + 1 >= m then M.finished_none
    else loc + 1
  in
  { M.label = "linear-scan"; slots = 1; init; resume }

let get_name env ~m = M.drive (machine ~m) env
