(** Broadcast pipelining (§6.1.2).

    In the paper's model every edge carries its own file, so a task whose
    single output tile is consumed by [d] children would appear to hold [d]
    copies.  The paper instead inserts "a linear pipeline of fictitious
    null-size tasks that models the broadcast of the output to the target
    tasks": the producer feeds the first fictitious relay, each relay feeds
    one consumer and the next relay, the last relay feeds the two remaining
    consumers.  Memory then holds at most three copies per broadcast step
    instead of [d + 1]. *)

val linearize : Dag.t -> Dag.t
(** [linearize g] rewrites every task with more than one child into a relay
    pipeline of zero-work tasks.  All outgoing edges
    of a rewritten task must carry identical [size] and [comm] attributes
    (they represent the same datum).
    @raise Invalid_argument if a high-fanout task has heterogeneous outgoing
    edges. *)

val n_fictitious : Dag.t -> int
(** Number of zero-work relay tasks in a linearised graph (name-based). *)

val is_fictitious : Dag.t -> int -> bool
