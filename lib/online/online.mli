(** Online list scheduling under dynamic task arrivals.

    Tasks are released over simulated time by an {!Arrival} process.  At
    each release epoch the offline heuristics' own loops
    ({!Heuristics.memheft_loop}, {!Heuristics.memminmin_loop}) drain the
    released subproblem and commit irrevocably into one {!Sched_state}.
    The loops are handed released tasks only, so the planner never peeks at
    a task before it arrives.

    Release floors enter as estimate lifts ([est' = max(est, release)],
    {!Sched_state.lift_estimate}).  The planner runs the default
    [Earliest_available] processor policy, under which a lift preserves
    feasibility: the staircase check is a suffix minimum and every other
    component is monotone in the start time.  Under {!Arrival.Batch} no lift
    fires and both planners reproduce their offline counterparts
    bit-for-bit. *)

type algo = Heft_like | Minmin_like

val algo_label : algo -> string
(** ["memheft" | "memminmin"]. *)

type decision = {
  d_task : int;
  d_pool : int;
  d_not_before : float;  (** the task's release time: its start-time floor *)
}

type plan = {
  p_algo : algo;
  p_arrival : Arrival.process;
  p_decisions : decision list;  (** chronological commit order *)
  p_schedule : Schedule.t;
  p_makespan : float;
  p_peak_blue : float;
  p_peak_red : float;
}

val plan :
  algo:algo -> arrival:Arrival.process -> Dag.t -> Platform.t -> (plan, Heuristics.failure) result
(** Runs the online planner to completion: at each release epoch, drain the
    released subproblem with the chosen algorithm's loop; fail only when
    every task has arrived and no ready task fits within the memory
    bounds. *)
