(** The four list-scheduling heuristics of the paper.

    {!memheft} is Algorithm 1: a static priority list by upward rank, each
    task assigned to the memory minimising its earliest finish time, with
    memory-infeasible tasks skipped until they fit.  {!memminmin} is
    Algorithm 2: the ready task with the globally smallest earliest finish
    time is scheduled next.  The memory-oblivious references HEFT and MinMin
    are the same algorithms run with unbounded memories (§6.2.1: "if the
    bounds exceed what HEFT uses, MemHEFT takes exactly the same
    decisions"). *)

type failure = {
  reason : string;
  n_scheduled : int;  (** tasks placed before the heuristic got stuck *)
}

type result = (Schedule.t, failure) Result.t

val memheft :
  ?options:Sched_state.options ->
  ?rng:Rng.t ->
  ?ranks:float array ->
  ?durations:float array array ->
  Dag.t ->
  Platform.t ->
  result
(** Memory-aware HEFT.  [rng] randomises rank tie-breaking as in the paper;
    omitted, ties break by task id (deterministic).  [ranks] supplies
    precomputed {!Rank.upward_ranks} (multi-restart callers compute them
    once — they depend only on the graph).  [durations] gives per-pool
    task durations for a platform with any number of memory pools (see
    {!Sched_state.create}); omitted, the graph's blue and red times. *)

val memminmin :
  ?options:Sched_state.options -> ?durations:float array array -> Dag.t -> Platform.t -> result
(** Memory-aware MinMin. *)

val memheft_run :
  ?options:Sched_state.options ->
  ?rng:Rng.t ->
  ?ranks:float array ->
  ?durations:float array array ->
  Dag.t ->
  Platform.t ->
  Sched_state.t * result
(** {!memheft} together with its final scheduling state — callers that need
    the decision sequence read it back with {!Sched_state.commit_order}
    (the replay engine turns it into an offline plan). *)

val memminmin_run :
  ?options:Sched_state.options ->
  ?durations:float array array ->
  Dag.t ->
  Platform.t ->
  Sched_state.t * result
(** {!memminmin} with its final state, as {!memheft_run}. *)

(** {2 The paper's two loops}

    The only production copies of Algorithm 1's scan and Algorithm 2's
    selection.  Each runs on a state the caller made and commits into it;
    [not_before.(i)] is task [i]'s release floor, lifted into every pool's
    estimate before the min-EFT choice ({!Sched_state.estimates}).  Offline
    callers pass zero floors, which never bind.  A loop returns when a full
    pass commits nothing, so the caller reads {!Sched_state.n_assigned} and
    words any failure itself. *)

val memheft_loop : Sched_state.t -> not_before:float array -> int array -> unit
(** Algorithm 1 over a priority order: repeatedly commit the first task of
    the order that is ready and fits, then rescan from the head.  Tasks of
    the order already assigned on entry are skipped.  The caller decides
    which tasks the order holds (the online planner passes released tasks
    only). *)

val memminmin_loop :
  Sched_state.t -> not_before:float array -> iter:((int -> unit) -> unit) -> unit
(** Algorithm 2 over a candidate set: repeatedly commit, among the tasks
    [iter] enumerates, the one with the smallest earliest finish time (ties:
    the candidate met first).  [iter] must enumerate ready tasks only and
    is re-run after every commit. *)

val memheft_reference :
  ?options:Sched_state.options -> ?rng:Rng.t -> Dag.t -> Platform.t -> result
(** Pre-optimisation MemHEFT, kept verbatim (full priority-list rescans,
    {!Sched_state.Reference} estimates, linear staircase scans).
    Bit-identical to {!memheft}: a test and fuzz oracle, asserted by the A/B
    test suite and the fuzzer's [o_reference] oracle. *)

val memminmin_reference : ?options:Sched_state.options -> Dag.t -> Platform.t -> result
(** Pre-optimisation MemMinMin, kept verbatim (O(n) ready-set rebuilds,
    {!Sched_state.Reference} estimates).  Bit-identical to {!memminmin}. *)

val heft :
  ?options:Sched_state.options ->
  ?rng:Rng.t ->
  ?ranks:float array ->
  ?durations:float array array ->
  Dag.t ->
  Platform.t ->
  Schedule.t
(** Reference HEFT: ignores the platform's memory bounds (runs with unbounded
    memories).  Never fails. *)

val minmin : ?options:Sched_state.options -> Dag.t -> Platform.t -> Schedule.t
(** Reference MinMin, memory-oblivious. *)

val unbounded_platform : Platform.t -> Platform.t
(** The same processors with every pool unbounded: what the
    memory-oblivious heuristics run on, and what their schedules are
    validated against. *)

val heft_measured :
  ?options:Sched_state.options ->
  ?rng:Rng.t ->
  ?ranks:float array ->
  Dag.t ->
  Platform.t ->
  Schedule.t * (float * float)
(** HEFT together with its planned memory peaks [(blue, red)] — the paper's
    [M^HEFT] quantities, measured with the planner's own accounting (see
    {!Sched_state.planned_peak}).  MemHEFT run with these values as bounds
    takes exactly the same decisions as HEFT (§6.2.1). *)

val minmin_measured :
  ?options:Sched_state.options -> Dag.t -> Platform.t -> Schedule.t * (float * float)
(** MinMin with its planned memory peaks. *)

val memmaxmin : ?options:Sched_state.options -> Dag.t -> Platform.t -> result
(** Extension (not in the paper): memory-aware MaxMin from the family of
    Braun et al. — the ready task with the largest best EFT goes first. *)

val memsufferage : ?options:Sched_state.options -> Dag.t -> Platform.t -> result
(** Extension: memory-aware Sufferage — the ready task that loses most by
    not getting its preferred pool (largest gap between its second-best and
    best EFT) goes first. *)

val maxmin : ?options:Sched_state.options -> Dag.t -> Platform.t -> Schedule.t
(** Memory-oblivious MaxMin. *)

val sufferage : ?options:Sched_state.options -> Dag.t -> Platform.t -> Schedule.t
(** Memory-oblivious Sufferage. *)

type name = HEFT | MinMin | MemHEFT | MemMinMin | MaxMin | Sufferage | MemMaxMin | MemSufferage

val name_to_string : name -> string

val all_names : name list
(** The four heuristics of the paper. *)

val extension_names : name list
(** The MaxMin/Sufferage family (extensions beyond the paper). *)

val is_memory_aware : name -> bool

val validation_platform : name -> Platform.t -> Platform.t
(** The platform a heuristic's schedule is validated against: the platform
    itself for a memory-aware heuristic, {!unbounded_platform} for a
    memory-oblivious one, which plans against unbounded memories. *)

val run :
  ?options:Sched_state.options ->
  ?rng:Rng.t ->
  ?ranks:float array ->
  name ->
  Dag.t ->
  Platform.t ->
  result
(** Dispatch by name; the memory-oblivious heuristics always return [Ok].
    [ranks] is forwarded to the rank-based heuristics (HEFT/MemHEFT) and
    ignored by the dynamic ones. *)
