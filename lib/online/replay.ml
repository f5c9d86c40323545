(* Replay of a committed plan under realized (perturbed) costs.

   The engine re-executes the plan's decision sequence on the realized graph
   through a fresh {!Sched_state}: same tasks, same pool choices, same
   release floors, but every estimate recomputed from the realized costs —
   so starts, transfers and finish times shift with the noise while the
   decisions stand.  Memory caps are enforced by the estimate machinery
   itself: a planned decision whose realized footprint no longer fits its
   planned pool in the probe is a divergence.

   Divergence handling is the rescheduling policy.  [No_repair] gives up —
   the baseline measuring how brittle a committed plan is.  [Rerank_repair]
   abandons the remaining decision suffix and re-places every not-yet-started
   task with MemHEFT's own loop: upward ranks recomputed on the full
   realized graph, release floors still honoured, caps still enforced.

   At noise level 0 the realized graph is bit-identical to the planned one,
   every estimate reproduces the planner's, and the replay returns the
   planned schedule bit-for-bit — the fixpoint oracle. *)

type policy = No_repair | Rerank_repair

let policy_label = function No_repair -> "norepair" | Rerank_repair -> "rerank"

type outcome = {
  o_schedule : Schedule.t;
  o_makespan : float;
  o_peak_blue : float;
  o_peak_red : float;
  o_replayed : int;  (* decisions re-executed as planned *)
  o_repaired : int;  (* tasks placed by the repair policy *)
}

let fail state reason =
  Error { Heuristics.reason; n_scheduled = Sched_state.n_assigned state }

(* Repair is Algorithm 1 over every unassigned task of the realized graph.
   Ranks come from the full graph (all tasks have arrived by the time a
   repair is contemplated — their costs just changed), floors from the
   plan's release times. *)
let repair state ~not_before =
  let g = Sched_state.graph state in
  let before = Sched_state.n_assigned state in
  Heuristics.memheft_loop state ~not_before (Rank.priority_list ~ranks:(Rank.upward_ranks g) g);
  if Sched_state.n_assigned state = Dag.n_tasks g then Ok (Sched_state.n_assigned state - before)
  else fail state "repair stuck: no unassigned task fits within the memory bounds"

let run ~policy (plan : Online.plan) realized platform =
  let n = Dag.n_tasks realized in
  if List.length plan.Online.p_decisions <> n then
    invalid_arg "Replay.run: plan does not cover the realized graph";
  let state = Sched_state.create realized platform in
  let not_before = Array.make n 0. in
  List.iter
    (fun (d : Online.decision) -> not_before.(d.Online.d_task) <- d.Online.d_not_before)
    plan.Online.p_decisions;
  let replayed = ref 0 in
  let rec follow = function
    | [] -> Ok 0
    | (d : Online.decision) :: rest ->
      let i = d.Online.d_task and q = d.Online.d_pool in
      if Sched_state.probe state ~not_before i >= 0 && Sched_state.probe_fits state q then begin
        Sched_state.commit state (Sched_state.probe_estimate state i q);
        incr replayed;
        follow rest
      end
      else begin
        (* The planned decision no longer fits under realized costs. *)
        match policy with
        | No_repair ->
          fail state
            (Printf.sprintf "replay diverged at task %d: planned decision infeasible under realized costs" i)
        | Rerank_repair -> repair state ~not_before
      end
  in
  match follow plan.Online.p_decisions with
  | Error f -> Error f
  | Ok repaired ->
    let s = Sched_state.schedule state in
    let peak_blue, peak_red = Events.peaks realized platform s in
    Ok
      {
        o_schedule = s;
        o_makespan = Schedule.makespan realized platform s;
        o_peak_blue = peak_blue;
        o_peak_red = peak_red;
        o_replayed = !replayed;
        o_repaired = repaired;
      }
