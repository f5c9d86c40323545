type t = {
  best : Heuristics.result;
  n_feasible : int;
  n_runs : int;
  makespans : float list;
}

let memheft ?options ?pool ?(restarts = 8) ?(seed = 1) g platform =
  if restarts < 0 then invalid_arg "Multistart.memheft: negative restarts";
  (* Upward ranks depend only on the graph: compute them once here instead
     of once per restart (each pass re-jitters the tie-breaking, not the
     ranks themselves). *)
  let ranks = Rank.upward_ranks g in
  (* Each pass owns an RNG derived from (seed + index) up front, so the runs
     are independent tasks and the outcome is the same for every jobs
     count; the fold below keeps the serial selection order. *)
  let passes =
    (fun () -> Heuristics.memheft ?options ~ranks g platform)
    :: List.init restarts (fun k () ->
           Heuristics.memheft ?options ~rng:(Rng.create (seed + k)) ~ranks g platform)
  in
  let runs =
    match pool with
    | None -> List.map (fun pass -> pass ()) passes
    | Some pool -> Par.parallel_map pool ~f:(fun pass -> pass ()) passes
  in
  let measure s = Schedule.makespan g platform s in
  let head = List.hd runs in
  let init =
    match head with Ok s -> (head, 1, [ measure s ]) | Error _ -> (head, 0, [])
  in
  let best, n_feasible, makespans =
    List.fold_left
      (fun (best, n, spans) r ->
        match (r, best) with
        | Ok s, Ok b ->
          let ms = measure s in
          ((if ms < measure b then r else best), n + 1, ms :: spans)
        | Ok s, Error _ -> (r, n + 1, measure s :: spans)
        | Error _, Ok _ -> (best, n, spans)
        | Error _, Error _ -> (r, n, spans))
      init (List.tl runs)
  in
  { best; n_feasible; n_runs = restarts + 1; makespans }

let improvement t =
  match t.makespans with
  | [] -> nan
  | spans -> Stats.minimum spans /. Stats.maximum spans
