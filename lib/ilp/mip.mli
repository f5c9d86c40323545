(** Branch-and-bound over the LP relaxation: a small MILP solver sufficient
    for toy instances of the paper's ILP (CPLEX stands in for anything
    larger via the {!Lp_format} export).

    Branching: the integer variable whose relaxation value is farthest from
    integrality; depth-first with best-bound pruning against the incumbent.
    Minimisation only. *)

type status =
  | Optimal  (** proven optimal within tolerances *)
  | Feasible  (** node or iteration budget exhausted with an incumbent *)
  | Infeasible  (** proven infeasible *)
  | Unknown  (** budget exhausted without an incumbent *)

type solution = {
  status : status;
  incumbent : (float array * float) option;  (** assignment and objective *)
  best_bound : float;  (** global lower bound on the optimum *)
  nodes : int;  (** branch-and-bound nodes explored *)
}

val solve :
  ?node_limit:int ->
  ?time_limit:float ->
  ?incumbent:float ->
  ?warm_start:bool ->
  Lp.t ->
  solution
(** [incumbent] seeds an upper bound (e.g. from a heuristic schedule);
    branches proving [bound >= incumbent - 1e-6] are pruned, and a
    relaxation value within [1e-6] of an integer counts as integral.
    [time_limit] is in CPU seconds ({!Sys.time}).  Defaults:
    [node_limit = 200_000], no time limit, [warm_start = true].

    [warm_start]: re-solve each child node with the dual simplex from its
    parent's optimal basis ({!Simplex.solve_relaxation_warm} /
    {!Simplex.resolve_dual}), falling back to the cold two-phase solve
    whenever the warm path cannot run.  [~warm_start:false] is the
    pre-overhaul behaviour, kept as the A/B reference: both modes visit the
    same tree and prune with the same objective values up to LP-solver
    rounding, so statuses and incumbents agree within tolerances. *)
