(** Replay of a committed plan under realized (perturbed) costs.

    The plan's decision sequence — task order, memory choices, release
    floors — is re-executed on the realized graph through a fresh
    {!Sched_state}; starts and finishes shift with the noise while the
    decisions stand.  Memory caps are enforced by the estimate machinery: a
    planned decision whose realized footprint no longer fits its planned
    pool in {!Sched_state.probe} is a {e divergence} and triggers the
    rescheduling policy.  Planned decisions keep their release floors (the
    probe lifts [est' = max(est, release)]); the replay runs the default
    [Earliest_available] processor policy, under which a lifted estimate
    stays feasible.

    At noise level [0.] the realized graph is bit-identical to the planned
    one and the replay returns the planned schedule bit-for-bit. *)

type policy =
  | No_repair  (** divergence fails the replay — the brittleness baseline *)
  | Rerank_repair
      (** divergence abandons the remaining decisions and re-places every
          not-yet-started task with MemHEFT's loop
          ({!Heuristics.memheft_loop}) on the realized graph: fresh upward
          ranks, release floors still honoured, caps still enforced *)

val policy_label : policy -> string
(** ["norepair" | "rerank"]. *)

type outcome = {
  o_schedule : Schedule.t;
  o_makespan : float;
  o_peak_blue : float;
  o_peak_red : float;
  o_replayed : int;  (** decisions re-executed as planned *)
  o_repaired : int;  (** tasks placed by the repair policy *)
}

val run :
  policy:policy ->
  Online.plan ->
  Dag.t ->
  Platform.t ->
  (outcome, Heuristics.failure) result
(** [run ~policy plan realized platform] re-executes [plan] on [realized],
    which must have the same topology (same task ids and edges) as the
    planned graph — {!Noise.perturb} guarantees this.
    @raise Invalid_argument when the plan does not cover the graph. *)
