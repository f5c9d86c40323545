(** Discrete-event reconstruction of memory usage over time (§3.2 semantics).

    Allocation rules implied by the paper's [BlueMemUsed]/[RedMemUsed]:
    a task's output files are allocated in its memory at its {e start};
    its input files are freed from its memory at its {e end}; a cross-memory
    transfer allocates the file in the destination memory at its start and
    frees it from the source memory at its end.  At equal instants, frees are
    applied before allocations, which matches the worked example of Figure 3
    (e.g. [RedMemUsed(T4) = F24 + F34]). *)

type trace = {
  times : float array;  (** event instants, strictly increasing, starts at 0. *)
  blue : float array;  (** blue usage on [\[times.(k), times.(k+1))] *)
  red : float array;
}

type scratch
(** Reusable working memory for {!memory_trace}: five buffers of one entry
    per event (event times, sort payload, the sort's working space, the
    deltas), which the trace then overwrites in place with its steps, plus
    one entry per task.  They are grown on demand to the exact event count
    and retained across calls, so reusing one scratch across a
    verification pass (validate, then trace, then stats on the same
    instance) makes every call after the first allocate nothing but the
    returned trace itself — on large instances the fresh-page cost of those
    buffers otherwise dominates the sweep.  A scratch is single-threaded
    state: share it between calls, never between domains. *)

val scratch : unit -> scratch
(** A fresh empty scratch (buffers are grown on first use). *)

val memory_trace : ?scratch:scratch -> Dag.t -> Platform.t -> Schedule.t -> trace
(** Flat reconstruction, bit-identical to {!memory_trace_reference}.
    Events are written straight into their slots in the reference's tie
    order (frees before allocations, then later-generated first) and ordered by
    one stable sort on time ({!Radix.sort}: LSD radix from
    {!Radix.comparison_cutoff} = 1536 events up, a merge sort below — the
    crossover measured on [rand-sweep]-sized and daemon-sized schedules,
    see DESIGN.md "Radix sorts").  The event order is total — the sequence number
    breaks every tie — so any correct sort yields the same permutation,
    and the float accumulations see the same operands in the same order.
    The sort's arrays are typed [float array]/[int array]: a polymorphic
    sort would box every key and delta it moves.
    @raise Invalid_argument ["Events.memory_trace: NaN time"] when an event
    with a non-zero delta falls at a NaN instant. *)

val memory_trace_into : scratch -> Dag.t -> Platform.t -> Schedule.t -> int
(** Zero-copy form of {!memory_trace}: computes the trace into the
    scratch's step accumulators and returns the step count, materialising
    nothing.  Read the steps through {!scratch_steps}.  This is what the
    validator's memory phase and [Sched_stats.compute] run on, so a
    verification sweep only folds over buffers it already owns. *)

val scratch_steps : scratch -> float array * float array * float array
(** [(times, blue, red)] accumulator buffers of the last
    {!memory_trace_into} over this scratch.  Only the prefix up to its
    returned count is meaningful, and the contents are invalidated by the
    next trace over the same scratch. *)

val memory_trace_reference : Dag.t -> Platform.t -> Schedule.t -> trace
(** The spec {!memory_trace} is checked against: event records consed onto
    a list in generation order, one [List.stable_sort] on (time, kind), so
    equal events keep reverse generation order, then reversed list
    accumulators.  The baseline of the parity tests and the sim-parity fuzz
    oracle; raises exactly what {!memory_trace} raises. *)

val usage_at : trace -> Platform.memory -> float -> float
(** Usage at a given instant (right-continuous step function). *)

val peak : trace -> Platform.memory -> float
(** The paper's memory peak [M^s_mu(D)]. *)

val peaks : Dag.t -> Platform.t -> Schedule.t -> float * float
(** [(peak blue, peak red)] of a schedule. *)

val usage_at_task_start : Dag.t -> Platform.t -> Schedule.t -> int -> float
(** The paper's [MemUsed(s, i)]: usage of task [i]'s memory during its
    processing (sampled just after its start, frees-first tie rule). *)
