(** Exact branch-and-bound scheduler — the "Optimal" reference of Figures 10
    and 11.

    The search enumerates every interleaving of (ready task, memory)
    decisions; each decision places the task at its earliest feasible start
    (the four EST components of §5.1) with just-in-time transfers.  Subtrees
    are pruned with the critical-path/work-area lower bound against the best
    incumbent (seeded from MemHEFT/MemMinMin when they succeed).

    This explores the same decision space the paper's ILP encodes, restricted
    to schedules where every task starts as early as its commitment order
    allows — the standard policy class for this kind of search; because the
    search branches over {e all} commitment orders, deliberate idling is
    covered by committing other tasks first.  The solver is cross-checked
    against the ILP (via {!Mip}) on toy instances in the test suite.  A
    {!result} is [Proven_optimal] only when the search space was exhausted
    within the node budget.

    {!solve} is the overhauled engine: an in-place commit/undo backtracking
    search (no per-node state copy), memory-aware dominance pruning (a
    precedence-only node lower bound plus a transposition set over canonical
    partial-schedule signatures), and a deterministic parallel mode that
    splits the tree breadth-first into a {e fixed-size} frontier of subtrees
    solved over a [lib/par] pool.  The frontier size (32 subtree roots) never
    depends on the job count and workers never share incumbents, so
    statuses, makespans, schedules and node counts are identical for every
    [--jobs] value.  {!solve_reference} is the pre-overhaul copy-based
    search, kept as the reference the A/B tests compare against. *)

type status =
  | Proven_optimal  (** search exhausted: best found is optimal (in-class) *)
  | Feasible  (** node budget hit with an incumbent *)
  | Proven_infeasible  (** search exhausted without any feasible schedule *)
  | Unknown  (** node budget hit without an incumbent *)

type result = {
  status : status;
  schedule : Schedule.t option;
  makespan : float;  (** [nan] without an incumbent *)
  best_bound : float;
      (** Certified lower bound on the optimal makespan: equals [makespan]
          when [Proven_optimal], [infinity] when [Proven_infeasible], and
          the smallest lower bound over the budget-truncated parts of the
          tree otherwise ([0.] when nothing is known).  [makespan -.
          best_bound] is the optimality gap a capped run leaves open.
          {!solve_reference} does not track truncated subtrees and reports
          the trivial bound for non-proven statuses. *)
  nodes : int;
}

val solve :
  ?pool:Par.t -> ?node_limit:int -> ?seed_incumbent:bool -> Dag.t -> Platform.t -> result
(** Defaults: [node_limit = 2_000_000], [seed_incumbent = true] (run the
    heuristics first for an upper bound; [false] is how a capped run ends
    [Unknown]).

    [pool]: solve subtrees on the pool's domains; with [None] (or a 1-job
    pool) they are solved serially — same results either way.  The node
    budget is split evenly over the subtrees, so the total node count can
    exceed [node_limit] by at most the frontier size. *)

val solve_reference : ?node_limit:int -> Dag.t -> Platform.t -> result
(** The pre-overhaul search: always seeded by the heuristics, it copies the
    whole scheduler state at every node and prunes only with [est + bottom]
    against the incumbent.  It plans on
    {!Sched_state.Reference} states and estimates, so it shares neither the
    estimate code nor the forgetting horizon with {!solve}. *)
