(** Validation of schedules over [k] memory pools: an oracle independent of
    the scheduling core and of the dual-memory {!Validator}.

    The model generalises §3 verbatim: a transfer is needed whenever
    producer and consumer run in different pools, takes [C(i,j)] and holds
    the file in both pools while in flight; output files occupy the pool
    from the task start, input files are freed from it at the task end.

    Durations are the core's pool-major columns: [durations.(q).(i)] is the
    processing time of task [i] on pool [q] (see {!Dag.check_durations}). *)

val makespan : float array array -> Platform.t -> Schedule.t -> float

type report = {
  makespan : float;
  peaks : float array;  (** usage peak per pool *)
}

val validate :
  ?eps:float ->
  Dag.t ->
  durations:float array array ->
  Platform.t ->
  Schedule.t ->
  (report, string list) result
(** Full oracle: flow, transfer bookkeeping, per-processor resource
    exclusivity, and per-pool memory capacities.
    @raise Invalid_argument when the columns fail {!Dag.check_durations} or
    their count is not [Platform.n_pools]. *)

val validate_exn :
  ?eps:float -> Dag.t -> durations:float array array -> Platform.t -> Schedule.t -> report
