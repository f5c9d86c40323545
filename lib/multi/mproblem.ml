type t = {
  graph : Dag.t;
  durations : float array array;
}

let make graph ~durations =
  let n = Dag.n_tasks graph in
  if Array.length durations <> n then invalid_arg "Mproblem.make: one duration row per task";
  if n > 0 then begin
    let k = Array.length durations.(0) in
    if k = 0 then invalid_arg "Mproblem.make: at least one pool";
    Array.iter
      (fun row ->
        if Array.length row <> k then invalid_arg "Mproblem.make: ragged duration matrix";
        Array.iter
          (fun w ->
            Fp.check_finite ~what:"Mproblem.make: duration" w;
            if w < 0. then invalid_arg "Mproblem.make: negative duration")
          row)
      durations
  end;
  { graph; durations }

let of_dual graph =
  let durations =
    Array.map (fun (t : Dag.task) -> [| t.Dag.w_blue; t.Dag.w_red |]) (Dag.tasks graph)
  in
  make graph ~durations

let n_pools t = if Array.length t.durations = 0 then 1 else Array.length t.durations.(0)
let duration t task pool = t.durations.(task).(pool)
let columns t = Array.init (n_pools t) (fun q -> Array.map (fun row -> row.(q)) t.durations)
