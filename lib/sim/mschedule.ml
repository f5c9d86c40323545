let pool_of platform (s : Schedule.t) i = Platform.pool_of_proc platform s.Schedule.procs.(i)
let duration durations platform s i = durations.(pool_of platform s i).(i)
let finish durations platform (s : Schedule.t) i =
  s.Schedule.starts.(i) +. duration durations platform s i

let makespan durations platform (s : Schedule.t) =
  let m = ref 0. in
  for i = 0 to Array.length s.Schedule.starts - 1 do
    m := Float.max !m (finish durations platform s i)
  done;
  !m

let is_cut platform s (e : Dag.edge) = pool_of platform s e.Dag.src <> pool_of platform s e.Dag.dst

type report = {
  makespan : float;
  peaks : float array;
}

(* Event sweep per pool; frees before allocations at equal instants, as in
   the dual-memory Events module. *)
let usage_trace g durations platform (s : Schedule.t) =
  let k = Platform.n_pools platform in
  let events = ref [] in
  let push time kind pool delta = if not (Float.equal delta 0.) then events := (time, kind, pool, delta) :: !events in
  for i = 0 to Dag.n_tasks g - 1 do
    let pool = pool_of platform s i in
    push s.Schedule.starts.(i) 1 pool (Dag.out_size g i);
    push (finish durations platform s i) 0 pool (-.Dag.in_size g i)
  done;
  Array.iter
    (fun (e : Dag.edge) ->
      if is_cut platform s e then begin
        match s.Schedule.comm_starts.(e.Dag.eid) with
        | Some tau ->
          push tau 1 (pool_of platform s e.Dag.dst) e.Dag.size;
          push (tau +. e.Dag.comm) 0 (pool_of platform s e.Dag.src) (-.e.Dag.size)
        | None -> invalid_arg "Mschedule: cut edge without transfer"
      end)
    (Dag.edges g);
  let events =
    List.sort
      (fun (t1, a1, b1, d1) (t2, a2, b2, d2) ->
        let c = Float.compare t1 t2 in
        if c <> 0 then c
        else
          let c = Int.compare a1 a2 in
          if c <> 0 then c
          else
            let c = Int.compare b1 b2 in
            if c <> 0 then c else Float.compare d1 d2)
      !events
  in
  let usage = Array.make k 0. in
  let peaks = Array.make k 0. in
  let min_usage = Array.make k 0. in
  List.iter
    (fun (_, _, pool, delta) ->
      usage.(pool) <- usage.(pool) +. delta;
      if usage.(pool) > peaks.(pool) then peaks.(pool) <- usage.(pool);
      if usage.(pool) < min_usage.(pool) then min_usage.(pool) <- usage.(pool))
    events;
  (peaks, min_usage, usage)

let validate ?(eps = 1e-6) g ~durations platform (s : Schedule.t) =
  Dag.check_durations ~fn:"Mschedule.validate" g durations;
  if Array.length durations <> Platform.n_pools platform then
    invalid_arg "Mschedule.validate: one duration column per memory pool";
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let name i = Dag.name g i in
  for i = 0 to Dag.n_tasks g - 1 do
    if s.Schedule.procs.(i) < 0 || s.Schedule.procs.(i) >= Platform.n_procs platform then
      err "task %s: processor %d out of range" (name i) s.Schedule.procs.(i);
    if s.Schedule.starts.(i) < -.eps then err "task %s: negative start" (name i)
  done;
  if !errors <> [] then Error (List.rev !errors)
  else begin
    Array.iter
      (fun (e : Dag.edge) ->
        let cut = is_cut platform s e in
        match (cut, s.Schedule.comm_starts.(e.Dag.eid)) with
        | true, None -> err "edge %s->%s: cut edge without a transfer" (name e.Dag.src) (name e.Dag.dst)
        | false, Some _ ->
          err "edge %s->%s: same-pool edge with a transfer" (name e.Dag.src) (name e.Dag.dst)
        | true, Some tau ->
          if finish durations platform s e.Dag.src > tau +. eps then
            err "edge %s->%s: transfer before producer finishes" (name e.Dag.src) (name e.Dag.dst);
          if tau +. e.Dag.comm > s.Schedule.starts.(e.Dag.dst) +. eps then
            err "edge %s->%s: transfer ends after consumer starts" (name e.Dag.src) (name e.Dag.dst)
        | false, None ->
          if finish durations platform s e.Dag.src > s.Schedule.starts.(e.Dag.dst) +. eps then
            err "edge %s->%s: consumer before producer" (name e.Dag.src) (name e.Dag.dst))
      (Dag.edges g);
    (* Resource exclusivity per processor. *)
    for p = 0 to Platform.n_procs platform - 1 do
      let tasks = ref [] in
      for i = Dag.n_tasks g - 1 downto 0 do
        if s.Schedule.procs.(i) = p then tasks := i :: !tasks
      done;
      let sorted =
        List.sort
          (fun a b ->
            let c = Float.compare s.Schedule.starts.(a) s.Schedule.starts.(b) in
            if c <> 0 then c
            else Float.compare (finish durations platform s a) (finish durations platform s b))
          !tasks
      in
      let rec check = function
        | a :: (b :: _ as rest) ->
          if finish durations platform s a > s.Schedule.starts.(b) +. eps then
            err "processor %d: tasks %s and %s overlap" p (name a) (name b);
          check rest
        | _ -> ()
      in
      check sorted
    done;
    if !errors <> [] then Error (List.rev !errors)
    else begin
      let peaks, min_usage, _final = usage_trace g durations platform s in
      Array.iteri
        (fun k peak ->
          if peak > Platform.pool_capacity platform k +. eps then
            err "pool %d: usage %g exceeds capacity %g" k peak (Platform.pool_capacity platform k);
          if min_usage.(k) < -.eps then err "pool %d: negative usage (bad file lifetimes)" k)
        peaks;
      match List.rev !errors with
      | [] -> Ok { makespan = makespan durations platform s; peaks }
      | errs -> Error errs
    end
  end

let validate_exn ?eps g ~durations platform s =
  match validate ?eps g ~durations platform s with
  | Ok r -> r
  | Error errs -> failwith (String.concat "\n" errs)
