(** Validation of schedules over [k] memory pools: an oracle independent of
    the scheduling core and of the dual-memory {!Validator}.

    The model generalises §3 verbatim: a transfer is needed whenever
    producer and consumer run in different pools, takes [C(i,j)] and holds
    the file in both pools while in flight; output files occupy the pool
    from the task start, input files are freed from it at the task end. *)

val pool_of : Platform.t -> Schedule.t -> int -> int
val duration : Mproblem.t -> Platform.t -> Schedule.t -> int -> float
val finish : Mproblem.t -> Platform.t -> Schedule.t -> int -> float
val makespan : Mproblem.t -> Platform.t -> Schedule.t -> float
val is_cut : Platform.t -> Schedule.t -> Dag.edge -> bool

type report = {
  makespan : float;
  peaks : float array;  (** usage peak per pool *)
}

val validate : ?eps:float -> Mproblem.t -> Platform.t -> Schedule.t -> (report, string list) result
(** Full oracle: flow, transfer bookkeeping, per-processor resource
    exclusivity, and per-pool memory capacities. *)

val validate_exn : ?eps:float -> Mproblem.t -> Platform.t -> Schedule.t -> report
