(** One driver per table/figure of the paper's evaluation (§6), and the one
    table ({!run}, {!all}) that says which of them runs at which scale.
    Each driver sends a human-readable table to the caller-supplied
    [?report] sink (default: discard) and writes a CSV under [out_dir]
    (default ["results"]); its optional arguments default to the paper's
    sizes.  [bin/] passes a printing reporter; the library itself never
    writes to stdout.  See EXPERIMENTS.md for the paper-vs-measured record.

    Campaign drivers accept an optional shared {!Par.t} pool ([?pool]) and
    fan the measurement grid out over it.  The determinism contract of
    {!Sweep} carries over: tables and CSVs are byte-identical for every
    jobs count (and for no pool at all). *)

val default_alphas : float list
(** 0.05 to 1.0 in steps of 0.05 — the normalised-memory axis of
    Figures 10 and 12. *)

val table1 : ?out_dir:string -> ?report:(string -> unit) -> ?pool:Par.t -> unit -> unit
(** Table 1: kernel timing model (CPU measured / GPU derived), plus an
    exact-baseline certification block: makespan, best bound and optimality
    gap of {!Exact.solve} on reference instances — including one run under a
    deliberately tiny node budget, whose gap is nonzero. *)

val figure8 : ?out_dir:string -> ?report:(string -> unit) -> unit -> unit
(** Figure 8: a SmallRandSet DAG — statistics + DOT file. *)

val figure9 : ?out_dir:string -> ?report:(string -> unit) -> ?size:int -> unit -> unit
(** Figure 9: a LargeRandSet DAG — statistics + DOT file. *)

val figure10 :
  ?out_dir:string ->
  ?report:(string -> unit) ->
  ?pool:Par.t ->
  ?count:int ->
  ?alphas:float list ->
  ?exact_nodes:int ->
  ?capped_count:int ->
  ?tiny_count:int ->
  unit ->
  unit
(** Figure 10: SmallRandSet normalised sweep (MemHEFT, MemMinMin) plus the
    "Optimal" series.  The exact series is computed with certificates on the
    10-task companion set ([tiny_count] DAGs, a 200 000-node budget each)
    and with a node budget ([exact_nodes]) on the 30-task set (uncertified
    points are reported as such); see DESIGN.md for the CPLEX
    substitution. *)

val figure11 :
  ?out_dir:string ->
  ?report:(string -> unit) ->
  ?pool:Par.t ->
  ?points:int ->
  unit ->
  unit
(** Figure 11: absolute memory-vs-makespan detail for the first SmallRandSet DAG,
    with the HEFT/MinMin reference lines and the makespan lower bound. *)

val figure12 :
  ?out_dir:string ->
  ?report:(string -> unit) ->
  ?pool:Par.t ->
  ?count:int ->
  ?size:int ->
  ?alphas:float list ->
  unit ->
  unit
(** Figure 12: LargeRandSet normalised sweep. *)

val figure13 :
  ?out_dir:string ->
  ?report:(string -> unit) ->
  ?pool:Par.t ->
  ?size:int ->
  ?points:int ->
  unit ->
  unit
(** Figure 13: absolute detail for one LargeRandSet DAG. *)

val figure14 :
  ?out_dir:string -> ?report:(string -> unit) -> ?pool:Par.t -> ?n:int -> ?points:int -> unit -> unit
(** Figure 14: LU factorisation of an [n x n] (default 13) tiled matrix on
    the mirage platform; absolute memory sweep in tiles plus the minimum
    feasible memory of each heuristic (found by bisection). *)

val figure15 :
  ?out_dir:string -> ?report:(string -> unit) -> ?pool:Par.t -> ?n:int -> ?points:int -> unit -> unit
(** Figure 15: Cholesky counterpart of Figure 14. *)

val ilp_cross_check :
  ?out_dir:string -> ?report:(string -> unit) -> ?pool:Par.t -> ?node_limit:int -> unit -> unit
(** §4 sanity: solve the full ILP with the built-in MIP on toy instances and
    compare with the exact branch-and-bound scheduler. *)

val ablations :
  ?out_dir:string ->
  ?report:(string -> unit) ->
  ?pool:Par.t ->
  ?count:int ->
  ?alphas:float list ->
  unit ->
  unit
(** Design-choice ablations on SmallRandSet: batched vs per-edge transfer
    accounting, eager vs just-in-time transfers, insertion vs
    earliest-available processor policy, random vs deterministic rank ties. *)

val extensions :
  ?out_dir:string ->
  ?report:(string -> unit) ->
  ?pool:Par.t ->
  ?count:int ->
  ?alphas:float list ->
  unit ->
  unit
(** Beyond the paper: the MaxMin and Sufferage heuristics (memory-aware
    variants of the other dynamic heuristics of Braun et al., the paper's
    reference [4]) against MemHEFT/MemMinMin. *)

val online_degradation :
  ?out_dir:string ->
  ?report:(string -> unit) ->
  ?pool:Par.t ->
  ?count:int ->
  ?level:float ->
  ?seeds:int ->
  unit ->
  unit
(** Beyond the paper: plan online (jittered arrivals) on SmallRandSet plus
    LU/Cholesky, replay every plan under [seeds] noise realizations at
    multiplicative [level], and report the p50/p95/max of the
    realized-over-planned makespan and peak-memory ratios per rescheduling
    policy.  Writes [online_degradation.csv]. *)

(** {1 The scale table}

    Which artefact runs at which size is decided in one table, so a single
    artefact and [all] at the same scale always run the same arguments. *)

type scale =
  | Quick  (** every artefact in well under a minute *)
  | Default  (** the sizes EXPERIMENTS.md quotes (50x30, 30x1000, 13x13); no online campaign *)
  | Paper  (** the paper's full campaign (50x30, 100x1000, 13x13) *)

type artefact =
  | Table1
  | Figure8
  | Figure9
  | Figure10
  | Figure11
  | Figure12
  | Figure13
  | Figure14
  | Figure15
  | Ilp
  | Ablations
  | Extensions
  | Online

val scales : (string * scale) list
(** Command-line names of the scales. *)

val artefacts : (string * artefact) list
(** Command-line names of the artefacts, in the order {!all} runs them. *)

val run :
  ?out_dir:string ->
  ?report:(string -> unit) ->
  ?pool:Par.t ->
  scale ->
  artefact ->
  (unit, string) result
(** Runs one artefact with its row of the table.  [Error] when the scale
    has no row for it ([Online] at [Default]). *)

val all : ?out_dir:string -> ?report:(string -> unit) -> ?pool:Par.t -> scale -> unit
(** Runs every row of the scale, in table order, then writes [plots.gp]. *)
