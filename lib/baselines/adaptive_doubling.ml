module M = Renaming.Machine

(* State: st.(off) = level i (object R_i), st.(off+1) = probe index. *)
let machine ?(probes_per_level = 4) space =
  if probes_per_level < 1 then
    invalid_arg "Adaptive_doubling.get_name: probes_per_level must be >= 1";
  let g = Renaming.Object_space.geometry space in
  let level st off (io : M.io) pid i =
    (match io.emit with
    | Some f -> f (Renaming.Events.Object_visited { obj = i })
    | None -> ());
    st.(off) <- i;
    st.(off + 1) <- 1;
    g.name_lo.(i) + io.draw pid (g.name_hi.(i) - g.name_lo.(i))
  in
  let init st off io pid = level st off io pid 1 in
  let resume st off (io : M.io) pid loc won =
    let i = st.(off) in
    (match io.emit with
    | Some f -> f (Renaming.Events.Probe { obj = i; batch = 0; location = loc; won })
    | None -> ());
    if won then begin
      (match io.emit with
      | Some f -> f (Renaming.Events.Name_acquired { obj = i; name = loc })
      | None -> ());
      M.finished loc
    end
    else begin
      let j = st.(off + 1) + 1 in
      if j <= probes_per_level then begin
        st.(off + 1) <- j;
        g.name_lo.(i) + io.draw pid (g.name_hi.(i) - g.name_lo.(i))
      end
      else if i + 1 > g.top then M.finished_none
      else level st off io pid (i + 1)
    end
  in
  { M.label = "doubling"; slots = 2; init; resume }

let get_name env ?probes_per_level space =
  M.drive (machine ?probes_per_level space) env
