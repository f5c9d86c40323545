(** HEFT's task-prioritising phase (§5.1).

    The upward rank of a task is its mean computation cost plus the largest
    [rank(child) + C/2] over its children:
    [rank(i) = (W_blue(i) + W_red(i)) / 2 + max_j (rank(j) + C(i,j) / 2)].
    With [k] pools the mean runs over the [k] per-pool durations.

    [durations] are pool-major columns as in {!Sched_state.create}; they
    default to the graph's blue and red times; supplied columns that fail
    {!Dag.check_durations} raise [Invalid_argument]. *)

val node_weight : ?durations:float array array -> Dag.t -> int -> float
(** The mean computation cost of a task over the pools. *)

val upward_ranks : ?durations:float array array -> Dag.t -> float array

val priority_list : ?rng:Rng.t -> ?ranks:float array -> Dag.t -> int array
(** Tasks sorted by non-increasing upward rank.  Ties are broken randomly
    when [rng] is given (as in the paper), by increasing id otherwise.
    [ranks] supplies precomputed {!upward_ranks} — they only depend on the
    graph, so multi-restart callers compute them once and every pass reuses
    the same array instead of re-deriving it. *)
