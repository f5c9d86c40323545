(** Flat earliest-start-time evaluation over the CSR graph views.

    This module owns the §5.1 EST formulas of the scheduler ([resource_EST],
    [precedence_EST], [task_mem_EST], [comm_mem_EST]) evaluated over
    {!Dag.Csr} arrays: one cache-linear walk of a task's packed predecessor
    row with zero allocation in the loop (cross-edge ids go to a per-pool
    scratch row, aggregates to per-pool slots).  Every per-memory quantity is
    indexed by pool number, so one walk serves any number of pools.
    {!Sched_state} re-exports the option and estimate types below and embeds
    a {!ctx} that shares its mutable arrays; use the [Sched_state] API unless
    you are inside the scheduling core.

    Bit-identity contract: every float operation (operator choice, operand
    order, accumulation order) mirrors the historical list-walking code in
    [Sched_state] — kept verbatim as [Sched_state.Reference] — so optimised
    and reference paths agree to the last bit (pinned by golden digests). *)

type comm_mode =
  | Jit_per_edge
      (** transfers complete exactly at the task start; exact per-prefix
          memory check (default) *)
  | Jit_batched
      (** transfers complete exactly at the task start; the paper's
          aggregated [comm_mem_EST + C^(mu)] check *)
  | Eager  (** ablation: transfers start as soon as the producer finishes *)

type proc_policy =
  | Earliest_available  (** paper behaviour: [resource_EST = min avail] *)
  | Insertion  (** ablation: classic HEFT insertion into idle gaps *)

type options = {
  comm_mode : comm_mode;
  proc_policy : proc_policy;
}

val default_options : options

val eps : float
(** [1e-9], the scheduler's internal tie-breaking tolerance. *)

type estimate = {
  task : int;
  pool : int;  (** the memory pool the estimate places the task on *)
  est : float;  (** earliest execution start time *)
  eft : float;  (** [est + W^(pool)] *)
}

val default_durations : Dag.t -> float array array
(** The dual-memory durations as pool-major columns:
    [[| Dag.Csr.w_blue g; Dag.Csr.w_red g |]]. *)

val check_durations : fn:string -> Dag.t -> float array array -> unit
(** Checks caller-supplied duration columns as the Dag builder checks
    processing times: at least one column, one entry per task, every entry
    finite and non-negative.  [fn] prefixes the error message.
    @raise Invalid_argument otherwise. *)

(** The evaluation context.  All non-scratch arrays are shared with the
    owning [Sched_state.t], which mutates them on commit; the context itself
    only writes its scratch.  Never share a context across domains. *)
type ctx

val make :
  options:options ->
  g:Dag.t ->
  durations:float array array ->
  free:Staircase.t array ->
  aft:float array ->
  pool_code:int array ->
  avail:float array ->
  busy:(float * float) list array ->
  procs:int array array ->
  min_avail:float array ->
  ctx
(** Builds a context around the given shared state.  [durations],
    [free], [procs] and [min_avail] are indexed by pool; [pool_code] holds
    [-1] for an unassigned task, its pool otherwise. *)

val probe : ctx -> int -> not_before:float array -> int
(** [probe c i ~not_before] evaluates ready task [i] (all parents
    assigned) on every pool from a single predecessor walk into the
    context's per-pool slots — each pool bit-identical to
    [Sched_state.Reference.estimate], then lifted to the release floor
    [not_before.(i)] ([est' = max(est, floor)], [eft'] recomputed from the
    duration) — and returns the minimum-EFT pool (ties: the earlier EST,
    then the lower pool), or [-1] when no pool fits.  Builds no estimate
    record. *)

val fits : ctx -> int -> bool
(** Whether the pool fitted in the last {!probe}. *)

val eft : ctx -> int -> float
(** The pool's lifted EFT from the last {!probe}; meaningful when it fits. *)

val estimate : ctx -> int -> int -> estimate
(** [estimate c i q]: the record of pool [q] from the last {!probe} of
    task [i]; meaningful when it fits. *)
