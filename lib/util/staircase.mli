(** Piecewise-constant, right-continuous functions of time.

    The scheduling heuristics of the paper maintain, for each memory, the
    function [free_mem(t)] giving the amount of memory still free at time [t]
    in the partial schedule (§5.1).  Because every allocation and release in
    the model takes effect from some instant {e onwards} (output files are
    held from the task start, input files are released at the task end, ...),
    all updates are of the form "add [delta] on [\[t, +inf)]", which keeps the
    representation compact: a sorted list of breakpoints.

    A staircase [s] is defined on [\[0, +inf)]; [value s t] is constant
    between consecutive breakpoints and equal to the value attached to the
    breakpoint at or before [t].

    A list scheduler only ever updates a staircase after some time that
    rises as the schedule grows; {!forget_before} lets the owner declare
    that time, after which the staircase stores only a live window of
    steps plus the minimum of the forgotten ones (see the contract
    there). *)

type t

val create : float -> t
(** [create v] is the constant function [t -> v]. *)

val value : t -> float -> float
(** [value s t] for [t >= 0].
    @raise Invalid_argument before the first stored breakpoint (a forgotten
    time). *)

val final_value : t -> float
(** Value on the unbounded last step. *)

val add_from : t -> float -> float -> unit
(** [add_from s t delta] adds [delta] to [s] on [\[t, +inf)].  A [t] within
    [eps] of an existing breakpoint is snapped onto it instead of splitting
    the step: breakpoint times therefore always differ by more than [eps],
    so float dust (e.g. just-in-time transfer times computed as
    [start -. comm]) cannot accumulate sliver steps.
    @raise Invalid_argument when [t] is negative or below the horizon set
    by {!forget_before}. *)

val min_from : t -> float -> float
(** [min_from s t] is [inf { s t' | t' >= t }].  O(log len) via a lazily
    patched minimum segment tree (only the suffix a mutation touched is
    re-derived, on the next query).  Exact for [t = 0.] (the forgotten
    minimum is folded in) and for every [t] at or after the first stored
    breakpoint. *)

val earliest_suffix_ge : t -> level:float -> from:float -> float
(** [earliest_suffix_ge s ~level ~from] is the smallest [t >= from] such that
    [s t' >= level] for every [t' >= t], or [infinity] when the final step is
    below [level] (the paper's [task_mem_EST] / [comm_mem_EST] primitives).
    A small epsilon tolerance absorbs floating-point dust from repeated
    updates.  O(log len): a descent of the minimum segment tree.  Exact
    whenever the last step below [level] is live; when that step has been
    forgotten, the answer and the exact one are both at most
    [Float.max from h], [h] the horizon of {!forget_before}. *)

val min_from_scan : t -> float -> float
(** Pre-optimisation O(len) reference for {!min_from} — kept for the A/B
    property tests, the test and fuzz oracle for {!min_from}. *)

val earliest_suffix_ge_scan : t -> level:float -> from:float -> float
(** Pre-optimisation O(len) reference for {!earliest_suffix_ge}. *)

(** {2 The forgetting horizon} *)

val forget_before : t -> float -> unit
(** [forget_before s h] declares that no later {!add_from} lands before [h]
    (a smaller [h] than the current horizon is ignored).  The staircase then
    keeps the steps from the one before the step containing [h] on (the
    live window) and the minimum of the values before it, compacting its
    arrays once the dead prefix is half of the stored steps (amortised
    O(1) per step ever stored).  Contract: {!final_value} stays exact, and
    so does [min_from s 0.] (the minimum of the forgotten minimum and the
    stored steps); {!earliest_suffix_ge} is exact whenever the last step
    below its level is live and at most [Float.max from h] otherwise;
    {!add_from} below [h] raises [Invalid_argument].  An update at or after
    [h] rewrites the live window exactly as it rewrites the full history.
    @raise Invalid_argument while the journal is on (see {!set_journal}). *)

val breakpoints : t -> (float * float) list
(** Normalised breakpoint list [(x, v)] of the live window: value [v] holds
    on [\[x, x')] where [x'] is the next breakpoint.  The first breakpoint
    is at time [0.] until the first {!forget_before}. *)

val length : t -> int
(** Number of live breakpoints (after lazy coalescing). *)

val copy : t -> t
(** Deep copy of the current function, horizon included.  The copy starts
    with journaling off and an empty journal regardless of the source's
    journal state. *)

(** {2 Mutation journal}

    Exact structural undo for {!add_from}, used by the exact solver's
    commit/undo search state (backtracking instead of deep-copying the
    scheduler state at every branch-and-bound node).  Undo restores the
    breakpoint arrays bit-for-bit: replaying [add_from t (-.delta)] would not
    (float addition does not round-trip, and eps-snapping/coalescing destroy
    structure). *)

type mark
(** A position in the mutation journal. *)

val set_journal : t -> bool -> unit
(** [set_journal s on] enables or disables journaling.  Both directions reset
    the journal to empty; marks taken before the call are invalidated. *)

val mark : t -> mark
(** Current journal position.  Only valid while journaling is on. *)

val undo_to : t -> mark -> unit
(** [undo_to s m] rewinds every mutation recorded after [mark s] returned [m],
    restoring the staircase to its exact state at that point.  Marks must be
    consumed LIFO. *)

