type baseline = {
  dag : Dag.t;
  ranks : float array;
  heft_makespan : float;
  heft_peak : float;
  minmin_makespan : float;
  minmin_peak : float;
  lower_bound : float;
}

let baseline platform dag =
  (* Peaks are the planner's accounting (Sched_state.planned_peak): the
     quantity for which "bounds at least HEFT's usage reproduce HEFT".
     Upward ranks depend only on the DAG: computed once here, reused by the
     baseline HEFT run and every sweep point over this instance. *)
  let ranks = Rank.upward_ranks dag in
  let heft_schedule, (heft_blue, heft_red) = Heuristics.heft_measured ~ranks dag platform in
  let minmin_schedule, (minmin_blue, minmin_red) = Heuristics.minmin_measured dag platform in
  let makespan name s =
    (Validator.validate_exn dag (Heuristics.validation_platform name platform) s).Validator.makespan
  in
  {
    dag;
    ranks;
    heft_makespan = makespan Heuristics.HEFT heft_schedule;
    heft_peak = Float.max heft_blue heft_red;
    minmin_makespan = makespan Heuristics.MinMin minmin_schedule;
    minmin_peak = Float.max minmin_blue minmin_red;
    lower_bound = Lower_bound.makespan dag platform;
  }

let baselines ?pool platform dags =
  match pool with
  | None -> List.map (baseline platform) dags
  | Some pool -> Par.parallel_map pool ~f:(baseline platform) dags

type measurement = {
  feasible : bool;
  makespan : float;
  ratio : float;
}

let run_bounded ?options platform b heuristic ~bound =
  let p = Platform.with_bounds platform ~m_blue:bound ~m_red:bound in
  let o = Outcome.run ?options ~ranks:b.ranks heuristic b.dag p in
  if o.Outcome.feasible then
    { feasible = true; makespan = o.Outcome.makespan; ratio = o.Outcome.makespan /. b.heft_makespan }
  else { feasible = false; makespan = nan; ratio = nan }

type aggregate = {
  alpha : float;
  success_rate : float;
  mean_ratio : float;
}

(* The parallel sweeps fan out over the full (alpha x instance) grid — every
   point is an independent pure computation — and then aggregate serially in
   the fixed (alpha-major, instance order) layout.  Because the aggregation
   fold is identical to the historical serial loop, the result is
   bit-identical for every jobs count, including jobs = 1. *)
let grid_map ?pool ~f ~alphas baselines =
  let points =
    List.concat_map (fun alpha -> List.map (fun b -> (alpha, b)) baselines) alphas
  in
  let results =
    match pool with
    | None -> List.map f points
    | Some pool -> Par.parallel_map pool ~f points
  in
  Array.of_list results

let normalized_sweep ?options ?pool platform ~alphas heuristic baselines =
  let measure (alpha, b) =
    run_bounded ?options platform b heuristic ~bound:(alpha *. b.heft_peak)
  in
  let grid = grid_map ?pool ~f:measure ~alphas baselines in
  let n = List.length baselines in
  List.mapi
    (fun ai alpha ->
      let ratios = ref [] and successes = ref 0 in
      for bi = 0 to n - 1 do
        let m = grid.((ai * n) + bi) in
        if m.feasible then begin
          incr successes;
          ratios := m.ratio :: !ratios
        end
      done;
      {
        alpha;
        success_rate = float_of_int !successes /. float_of_int n;
        mean_ratio = Stats.mean !ratios;
      })
    alphas

type exact_aggregate = {
  e_alpha : float;
  e_success_rate : float;
  e_mean_ratio : float;
  e_certified : int;
  e_best_ratio : float;
}

let exact_sweep ?pool ~node_limit platform ~alphas baselines =
  let solve (alpha, b) =
    let bound = alpha *. b.heft_peak in
    let p = Platform.with_bounds platform ~m_blue:bound ~m_red:bound in
    Exact.solve ?pool ~node_limit b.dag p
  in
  let grid = grid_map ?pool ~f:solve ~alphas baselines in
  let barr = Array.of_list baselines in
  let n = Array.length barr in
  List.mapi
    (fun ai alpha ->
      let ratios = ref [] and successes = ref 0 and certified = ref 0 in
      let best_ratios = ref [] in
      for bi = 0 to n - 1 do
        let b = barr.(bi) in
        let r = grid.((ai * n) + bi) in
        (match r.Exact.status with
        | Exact.Proven_optimal | Exact.Feasible ->
          best_ratios := (r.Exact.makespan /. b.heft_makespan) :: !best_ratios
        | _ -> ());
        match r.Exact.status with
        | Exact.Proven_optimal ->
          incr certified;
          incr successes;
          ratios := (r.Exact.makespan /. b.heft_makespan) :: !ratios
        | Exact.Proven_infeasible -> incr certified
        | Exact.Feasible | Exact.Unknown -> ()
      done;
      {
        e_alpha = alpha;
        e_success_rate =
          (if !certified = 0 then nan else float_of_int !successes /. float_of_int !certified);
        e_mean_ratio = Stats.mean !ratios;
        e_certified = !certified;
        e_best_ratio = Stats.mean !best_ratios;
      })
    alphas
