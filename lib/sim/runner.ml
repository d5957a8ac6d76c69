type result = {
  names : int option array;
  steps : int array;
  crashed : bool array;
  total_steps : int;
  max_steps : int;
  space_used : int;
  crash_count : int;
  point_contention : int;
}

let make_env ~root ~on_event ~tas ~reset pid =
  let rng = Prng.Splitmix.split_at root pid in
  let emit = Option.map (fun f e -> f ~pid e) on_event in
  Renaming.Env.make ?emit ~reset ~pid ~tas ~random_int:(Prng.Splitmix.int rng) ()

let surviving_max steps crashed =
  let m = ref 0 in
  Array.iteri (fun pid s -> if not crashed.(pid) && s > !m then m := s) steps;
  !m

let run ?(adversary = Adversary.random) ?on_event ?(max_total_steps = 10_000_000)
    ?capacity ~seed ~n ~algo () =
  let space = Location_space.create ?capacity () in
  let root = Prng.Splitmix.of_int seed in
  let adversary_rng = Prng.Splitmix.split_at root n in
  let body pid =
    let env = make_env ~root ~on_event ~tas:Proc.tas ~reset:Proc.reset pid in
    fun () -> algo env
  in
  let sched = Scheduler.create ~space ~adversary ~rng:adversary_rng ~n ~body () in
  Scheduler.run_to_completion ~max_steps:max_total_steps sched;
  let crashed = Array.init n (Scheduler.crashed sched) in
  let steps = Scheduler.step_counts sched in
  {
    names = Scheduler.names sched;
    steps;
    crashed;
    total_steps = Scheduler.total_steps sched;
    max_steps = surviving_max steps crashed;
    space_used = Location_space.high_water_mark space;
    crash_count = Scheduler.crash_count sched;
    point_contention = Scheduler.max_point_contention sched;
  }

let run_sequential ?(shuffled = true) ?on_event ?capacity ~seed ~n ~algo () =
  let space = Location_space.create ?capacity () in
  let root = Prng.Splitmix.of_int seed in
  let names = Array.make n None in
  let steps = Array.make n 0 in
  let order =
    if shuffled then Prng.Shuffle.permutation (Prng.Splitmix.split_at root n) n
    else Array.init n (fun i -> i)
  in
  Array.iter
    (fun pid ->
      let count = ref 0 in
      let tas loc =
        incr count;
        Location_space.tas space loc
      in
      let reset loc =
        incr count;
        Location_space.release space loc
      in
      let env = make_env ~root ~on_event ~tas ~reset pid in
      names.(pid) <- algo env;
      steps.(pid) <- !count)
    order;
  let total_steps = Array.fold_left ( + ) 0 steps in
  let crashed = Array.make n false in
  {
    names;
    steps;
    crashed;
    total_steps;
    max_steps = surviving_max steps crashed;
    space_used = Location_space.high_water_mark space;
    crash_count = 0;
    point_contention = 1;
  }

let check_unique_names r =
  (* Every survivor holds a name and no two hold the same one.  Names
     that fit a byte map a few times the survivor count are marked in
     one; sparser ones are sorted and neighbours compared. *)
  let n = Array.length r.names in
  let held = Array.make n 0 in
  let count = ref 0 in
  let all_named = ref true in
  let lo = ref 0 and hi = ref 0 in
  for pid = 0 to n - 1 do
    if not r.crashed.(pid) then
      match r.names.(pid) with
      | None -> all_named := false
      | Some u ->
        held.(!count) <- u;
        incr count;
        if u < !lo then lo := u;
        if u > !hi then hi := u
  done;
  let count = !count in
  !all_named
  &&
  if !lo >= 0 && !hi < 8 * count then begin
    let seen = Bytes.make (!hi + 1) '\000' in
    let rec fresh i =
      i >= count
      || Bytes.get seen held.(i) = '\000'
         && (Bytes.set seen held.(i) '\001';
             fresh (i + 1))
    in
    fresh 0
  end
  else begin
    let held = Array.sub held 0 count in
    Array.sort Int.compare held;
    let rec distinct i = i >= count || (held.(i - 1) <> held.(i) && distinct (i + 1)) in
    distinct 1
  end

let max_name r =
  Array.fold_left
    (fun acc name -> match name with Some u when u > acc -> u | _ -> acc)
    (-1) r.names
