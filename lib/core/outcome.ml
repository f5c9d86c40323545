type t = {
  heuristic : Heuristics.name;
  feasible : bool;
  makespan : float;
  peak_blue : float;
  peak_red : float;
  schedule : Schedule.t option;
  failure : string option;
}

let run ?options ?rng ?ranks heuristic g platform =
  (* The memory-oblivious baselines ignore the bounds; validate them against
     unbounded capacities and report their measured peaks. *)
  let check_platform =
    if Heuristics.is_memory_aware heuristic then platform
    else Heuristics.unbounded_platform platform
  in
  match Heuristics.run ?options ?rng ?ranks heuristic g platform with
  | Ok s -> (
    match Validator.validate g check_platform s with
    | Ok report ->
      {
        heuristic;
        feasible = true;
        makespan = report.Validator.makespan;
        peak_blue = report.Validator.peak_blue;
        peak_red = report.Validator.peak_red;
        schedule = Some s;
        failure = None;
      }
    | Error errs ->
      failwith
        (Printf.sprintf "%s produced an invalid schedule:\n%s"
           (Heuristics.name_to_string heuristic)
           (String.concat "\n" errs)))
  | Error f ->
    {
      heuristic;
      feasible = false;
      makespan = nan;
      peak_blue = nan;
      peak_red = nan;
      schedule = None;
      failure = Some f.Heuristics.reason;
    }

let peak_max o = Float.max o.peak_blue o.peak_red

let pp ppf o =
  if o.feasible then
    Format.fprintf ppf "%s: makespan=%g peaks=(%g, %g)"
      (Heuristics.name_to_string o.heuristic)
      o.makespan o.peak_blue o.peak_red
  else
    Format.fprintf ppf "%s: infeasible (%s)"
      (Heuristics.name_to_string o.heuristic)
      (Option.value ~default:"?" o.failure)
