(** Mixed-integer linear program representation.

    A thin, solver-independent model object: variables with bounds and
    integrality, linear constraints, a linear objective.  Built by
    {!Ilp_model} (the paper's formulation), consumed by {!Simplex}/{!Mip}
    and by the CPLEX-LP writer {!Lp_format}. *)

type var_kind = Continuous | Binary | General_integer

type var = private {
  idx : int;
  vname : string;
  lb : float;
  ub : float;  (** [infinity] = unbounded above *)
  kind : var_kind;
}

type sense = Le | Ge | Eq

type linexpr = (float * int) list
(** Terms [(coefficient, variable index)]; duplicates are summed. *)

type constr = private {
  cname : string;
  terms : linexpr;
  sense : sense;
  rhs : float;
}

type objective = Minimize of linexpr | Maximize of linexpr

type t

val create : unit -> t

val add_var : t -> ?lb:float -> ?ub:float -> ?kind:var_kind -> string -> int
(** Returns the variable index.  Defaults: [lb = 0.], [ub = infinity],
    [kind = Continuous].  Binary variables get bounds clamped to [\[0,1\]]. *)

val add_constr : t -> name:string -> linexpr -> sense -> float -> unit
val set_objective : t -> objective -> unit

val fix : t -> int -> float -> unit
(** Clamp a variable's bounds to a single value (presolve fixing). *)

val set_kind : t -> int -> var_kind -> unit
(** Change a variable's integrality; [Binary] clamps its bounds to
    [\[0,1\]]. *)

val override_bounds : t -> int -> lb:float -> ub:float -> unit
(** Replace a variable's bounds (used by branch-and-bound to branch and to
    restore).  @raise Invalid_argument when [lb > ub]. *)

val n_vars : t -> int
val n_constrs : t -> int
val var : t -> int -> var
val vars : t -> var array
val constrs : t -> constr array
val objective : t -> objective

val constraint_violation : t -> float array -> float
(** Largest violation of any constraint or bound under an assignment
    (0. when feasible). *)

val integer_violation : t -> float array -> float
(** Largest distance of an integer variable from integrality. *)
