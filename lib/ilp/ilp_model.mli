(** The paper's ILP formulation (§4, Figures 5, 6 and 7), built as an {!Lp}
    model.

    Variables (Figure 5): makespan [M]; task starts [t_i]; transfer starts
    [tau_ij]; processor indices [p_i] (general integers in [\[1, P\]]);
    memory indicators [b_i]; actual durations [w_i]; the ordering binaries
    [eps_ij], [delta_ij], [sigma_ij], [sigma'_kij], [m_ij], [m'_kij],
    [c_ijk], [c'_ijkp], [d_ijk], [d'_ijkp]; and the linearisation products
    [alpha_kpi], [beta_kpi], [alpha'_kpij], [beta'_kpij] of Figure 7 (left
    continuous in [\[0,1\]]; the constraints force them to the product
    values).

    Two typos of the report are resolved in favour of the constraint set:
    (i) Figure 5 says [b_i = 1] means blue, but constraints (13) and (24)
    only type-check with [b_i = 0] = blue / [b_i = 1] = red, which is what
    Figure 7's memory bound [b_i M_red + (1 - b_i) M_blue] also uses; this
    module follows the constraints.  (ii) Constraint (27) bounds the
    memory of the {e destination} of transfer [(i,j)], hence uses [b_j].

    The diagonal conventions the formulation relies on are preserved:
    constraint (14) with [i = j] forces [m_ii = 1] (a task counts as started
    at its own start, so its output files are counted by (26)), (15) forces
    [sigma_ii = 0], and (17) forces [c'_ee = 1] (an in-flight file counts in
    the destination memory by (27)). *)

type t

val build : ?presolve:bool -> Dag.t -> Platform.t -> t
(** Builds the full model.  Memory capacities must be finite (cap unbounded
    experiments by the total file size).  [presolve] (default true) fixes
    the ordering binaries implied by the precedence relation ([m_ij = 1] and
    [sigma_ij = 1] for every ancestor pair), which shrinks branch-and-bound
    trees dramatically without cutting any optimal solution.
    @raise Invalid_argument on infinite capacities. *)

val lp : t -> Lp.t
(** The underlying model (for {!Simplex}, {!Mip} or {!Lp_format}). *)

val n_vars : t -> int
val n_constrs : t -> int

val extract_schedule : t -> float array -> Schedule.t
(** Reads a schedule out of an integral assignment: task starts and
    processors, and transfer starts for every cut edge. *)

val mmax : t -> float
(** The big-M horizon [sum W1 + sum W2 + sum C] used by the model. *)
