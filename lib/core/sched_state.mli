(** Shared machinery of the list-scheduling heuristics (§5.1).

    A value of type {!t} is a partial schedule together with the bookkeeping
    the paper's memory-selection phase needs: one [free_mem] staircase
    function per memory pool, per-processor availability, and per-task
    finish times.  Pools are numbered as in {!Platform}; the state never
    assumes there are two.

    {!estimate} computes the earliest start time of a task on a memory as the
    maximum of the four components of §5.1 —
    [resource_EST], [precedence_EST], [task_mem_EST] and
    [comm_mem_EST + C^(mu)] — and {!commit} applies a decision, scheduling
    every incoming cross-memory transfer and updating the memory profiles.

    Transfers: when task [i] is assigned to memory [mu], the transfer of each
    cross edge [(j,i)] is emitted just-in-time, starting at
    [EST(i) - C(j,i)] so that it completes exactly at the task start; the
    recorded memory profile is exact.  Consequently [precedence_EST]
    (computed with the paper's per-edge formula [AFT(j) + C(j,i)]) also
    guarantees transfer validity.  Two variants of [comm_mem_EST] are
    provided: the paper's batched formula (total incoming mass over a window
    of the maximal transfer time) and an exact per-edge refinement that
    checks each prefix of the transfers sorted by decreasing transfer time.
    The per-edge variant is the default because it makes the planner's
    accounting coincide with the validator's reconstruction, which in turn
    guarantees the paper's §6.2.1 property that MemHEFT with bounds at least
    HEFT's measured peaks reproduces HEFT exactly.  The {!Eager} ablation
    instead fires each transfer as soon as its producer completes. *)

type comm_mode = Est.comm_mode =
  | Jit_per_edge
      (** transfers complete exactly at the task start; exact per-prefix
          memory check (default) *)
  | Jit_batched
      (** transfers complete exactly at the task start; the paper's
          aggregated [comm_mem_EST + C^(mu)] check *)
  | Eager  (** ablation: transfers start as soon as the producer finishes *)

type proc_policy = Est.proc_policy =
  | Earliest_available  (** paper behaviour: [resource_EST = min avail] *)
  | Insertion  (** ablation: classic HEFT insertion into idle gaps *)

type options = Est.options = {
  comm_mode : comm_mode;
  proc_policy : proc_policy;
}

val default_options : options
(** [{ comm_mode = Jit_per_edge; proc_policy = Earliest_available }]. *)

type t

val create : ?options:options -> ?durations:float array array -> Dag.t -> Platform.t -> t
(** An empty schedule.  [durations.(q).(i)] is the processing time of task
    [i] on pool [q] (pool-major columns); it defaults to
    {!Est.default_durations}, the graph's blue and red times.
    @raise Invalid_argument when the column count is not
    [Platform.n_pools], or the columns fail {!Est.check_durations}. *)

val copy : t -> t
(** Deep copy (used by the exact branch-and-bound search). *)

val graph : t -> Dag.t
val platform : t -> Platform.t

val schedule : t -> Schedule.t
(** The underlying schedule; complete once every task is assigned. *)

val n_assigned : t -> int

val commit_order : t -> int list
(** Task ids in chronological commit order ([uncommit]ted decisions are
    dropped).  A heuristic's decision sequence, ready for replay. *)

val is_assigned : t -> int -> bool
val is_ready : t -> int -> bool
(** All parents assigned (the task itself not yet). *)

val ready_tasks : t -> int list
(** Ready tasks in ascending id order, built from the flat ready set (a
    sorted int array plus an insertion buffer maintained incrementally by
    {!commit}/{!uncommit} — O(width) to materialise the list, amortised O(1)
    per commit to maintain).  Hot loops should prefer {!iter_ready}. *)

val iter_ready : t -> (int -> unit) -> unit
(** Applies the function to every ready task in ascending id order without
    materialising a list.  The callback must not {!commit}/{!uncommit}. *)

val finish_time : t -> int -> float
(** [AFT(i)]; meaningful only once [i] is assigned. *)

val duration : t -> int -> int -> float
(** [duration t i q]: the processing time of task [i] on pool [q]. *)

val free_mem_final : t -> int -> float
(** Free memory of a pool after all planned releases — capacity minus
    retained files. *)

val planned_peak : t -> int -> float
(** The planner's own accounting of the memory a pool needs: the
    maximum, over commits, of the worst future usage right after a commit's
    allocations and before its releases.  This is at least the event-trace
    peak (files whose consumers are not yet scheduled count as retained
    forever) and is the quantity for which the paper's §6.2.1 claim —
    "MemHEFT with bounds at least what HEFT uses takes exactly the same
    decisions as HEFT" — is a theorem.  Only tracked when the pool's
    capacity is finite ([0.] otherwise). *)

type estimate = Est.estimate = {
  task : int;
  pool : int;  (** the memory pool the estimate places the task on *)
  est : float;  (** earliest execution start time *)
  eft : float;  (** [est + W^(pool)] *)
  comm_batch : float;  (** [C^(pool)(i)]: max transfer time over cross parents *)
}

val estimate : t -> int -> int -> estimate option
(** [estimate t i q]: [None] when the task is not ready or cannot fit in
    pool [q] (the paper's [EFT = +infinity] case).  Evaluated by {!Est}
    over the flat CSR views: one allocation-free predecessor walk. *)

val lift_estimate : t -> not_before:float -> estimate -> estimate
(** Applies a release floor: [est' = max(est, not_before)] and
    [eft' = est' + W^(pool)], recomputed from the state's durations rather
    than shifted.  Returns the estimate itself when the floor does not bind.
    Lifting keeps a feasible estimate feasible under [Earliest_available]:
    staircase feasibility is a suffix minimum (later suffixes have no
    smaller minimum), transfer windows move later with the start, and every
    processor available by [est] is still available by [est']. *)

val estimates : t -> not_before:float array -> int -> estimate option array
(** [estimates t ~not_before i]: every pool's {!estimate} from a single
    predecessor walk — bit-identical to one call per pool — each lifted by
    the task's release floor [not_before.(i)] ({!lift_estimate}).  Zero
    floors never bind.  All [None] when the task is not ready. *)

val best_of : estimate option array -> estimate option
(** The minimum-EFT choice used by {!best_estimate} (ties: earlier EST, then
    the lower pool).  Exposed so callers that already hold the per-pool
    estimates derive the winner with the same comparison. *)

val best_estimate : t -> not_before:float array -> int -> estimate option
(** [best_of (estimates t ~not_before i)]: floors are lifted into each pool
    before the comparison, so a floor can flip the winning pool when it
    erases another pool's head start. *)

val commit : t -> estimate -> unit
(** Applies a decision: picks the processor minimising idle time (or the
    best insertion slot) in the estimate's pool, schedules incoming
    transfers, and updates the memory profiles.
    @raise Invalid_argument if the task is already assigned or the estimate
    is stale (recompute estimates after every commit). *)

(** {2 Commit/undo trail}

    Backtracking search support for the exact branch-and-bound: instead of
    deep-copying the whole state at every node (O(n + breakpoints) per node),
    the search mutates one state in place and rewinds.  With the trail
    enabled, every {!commit} pushes an undo record (captured before any
    mutation, so a trailing commit is bit-identical to a plain one) and
    {!uncommit} pops it, restoring the state bit-for-bit — including the
    staircases, which are rewound through their structural mutation journal
    (float arithmetic does not round-trip, so replaying negated deltas would
    not). *)

val set_trail : t -> bool -> unit
(** Enable or disable the undo trail (and the staircase journals).  Both
    directions clear any recorded history. *)

val uncommit : t -> unit
(** Rewinds the most recent {!commit} recorded on the trail.
    @raise Invalid_argument when the trail is empty. *)

val snapshot_schedule : t -> Schedule.t
(** A deep copy of the current schedule arrays only — what the exact search
    stores for an incumbent instead of a full {!copy}. *)

(** Pre-optimisation reference implementations, kept verbatim: O(n)
    ready-set rescans, three predecessor-list traversals per estimate, and
    linear staircase scans.  A test and fuzz oracle: the A/B test suite and
    the fuzzer's [o_reference] oracle assert the optimised paths above are
    bit-identical to these. *)
module Reference : sig
  val ready_tasks : t -> int list
  val estimate : t -> int -> int -> estimate option
  val best_estimate : t -> int -> estimate option
end
