(** A scheduling instance over [k] memory pools: the graph structure of
    {!Dag.t} plus a per-pool duration for every task (the dual-memory
    [w_blue]/[w_red] generalised to an array).  The scheduling core takes
    the validated durations through {!columns}:
    [Heuristics.memheft ~durations:(Mproblem.columns p) p.graph platform]. *)

type t = private {
  graph : Dag.t;
  durations : float array array;  (** [durations.(task).(pool)] *)
}

val make : Dag.t -> durations:float array array -> t
(** @raise Invalid_argument when the matrix shape does not match the graph
    or a duration is negative, NaN or infinite. *)

val of_dual : Dag.t -> t
(** Two pools from [w_blue] (pool 0) and [w_red] (pool 1). *)

val n_pools : t -> int
val duration : t -> int -> int -> float
(** [duration p task pool]. *)

val columns : t -> float array array
(** The durations pool-major, [columns p = [| pool 0's column; ... |]]: the
    [?durations] argument of {!Sched_state.create} and {!Heuristics}. *)
