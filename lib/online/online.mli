(** Online list scheduling under dynamic task arrivals.

    Tasks are released over simulated time by an {!Arrival} process and
    committed irrevocably through the offline heuristics' own incremental
    machinery ({!Sched_state}).  The decision loops are written against the
    restricted {!View}, which refuses to answer about unreleased tasks — the
    no-peeking guarantee is structural, not a convention.

    Release floors enter as estimate lifts ([est' = max(est, release)]),
    which preserve feasibility because the staircase check is a suffix
    minimum and every other component is monotone in the start time.  Under
    {!Arrival.Batch} no lift fires and both planners reproduce their offline
    counterparts bit-for-bit. *)

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

val lift_estimate :
  Sched_state.t -> not_before:float -> Sched_state.estimate -> Sched_state.estimate
(** [est' = max(est, not_before)], [eft' = est' + W^(pool)] (recomputed from
    the state's durations, not shifted).  Feasibility is preserved — see the
    module preamble. *)

(** The planner's window onto the scheduling state: released tasks only. *)
module View : sig
  type t

  val now : t -> float
  val n_tasks : t -> int
  val n_assigned : t -> int
  val is_released : t -> int -> bool

  val iter_ready : t -> (int -> unit) -> unit
  (** Released ready tasks, in the state's ready-set order. *)

  val best_estimate : t -> int -> Sched_state.estimate option
  (** Minimum-EFT estimate over the pools with the release floor lifted
      into each one before comparison.  [None] for unreleased, unready or
      memory-infeasible tasks. *)

  val priority_order : t -> int array
  (** Unassigned released tasks by non-increasing upward rank of the
      released subgraph (edges to unreleased children treated absent),
      ties by id.  Bit-identical to {!Rank.upward_ranks} order when
      everything is released. *)

  val commit : t -> Sched_state.estimate -> unit
  (** Irrevocable.  Records the decision with its release floor.
      @raise Invalid_argument on an unreleased task. *)
end

val plan :
  ?options:Sched_state.options ->
  algo:algo ->
  arrival:Arrival.process ->
  Dag.t ->
  Platform.t ->
  (plan, Heuristics.failure) result
(** Runs the online planner to completion: at each release epoch, drain the
    released subproblem with the chosen algorithm; fail only when every
    task has arrived and no ready task fits within the memory bounds. *)

val plan_of_offline :
  ?options:Sched_state.options ->
  algo:algo ->
  Dag.t ->
  Platform.t ->
  (plan, Heuristics.failure) result
(** An offline heuristic run repackaged as a plan (decision sequence from
    {!Sched_state.commit_order}, all floors zero).  Bit-identical to
    [plan ~arrival:Batch]. *)
