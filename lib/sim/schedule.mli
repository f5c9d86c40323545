(** A complete schedule [(sigma, tau, proc)] in the sense of §3.1.

    For each task: a start time and a processor index.  For each edge whose
    endpoints run on different memories (a {e cut} edge): the start time of
    the corresponding cross-memory transfer.  Same-memory edges carry no
    transfer. *)

type t = {
  starts : float array;  (** [sigma(i)], indexed by task id *)
  procs : int array;  (** [proc(i)], indexed by task id *)
  comm_starts : float option array;
      (** [tau(i,j)], indexed by edge id; [None] on same-memory edges *)
}

val create : Dag.t -> t
(** All starts at [0.], all tasks on processor [0], no transfers: a blank
    schedule to be filled in. *)

val memory_of : Platform.t -> t -> int -> Platform.memory
(** Memory on which a task executes. *)

val duration : Dag.t -> Platform.t -> t -> int -> float
(** Actual processing time [W_i] of a task given its placement. *)

val finish : Dag.t -> Platform.t -> t -> int -> float
(** [sigma(i) + W_i]. *)

val is_cut : Platform.t -> t -> Dag.edge -> bool
(** True when the edge's endpoints execute on different memories. *)

val comm_duration : Platform.t -> t -> Dag.edge -> float
(** [C(i,j)] on a cut edge, [0.] otherwise (the paper's [COMM(i,j)]). *)

val comm_finish : Dag.t -> Platform.t -> t -> Dag.edge -> float
(** End of the transfer on a cut edge; on a same-memory edge, the producer's
    finish time (the file is available immediately). *)

val makespan : Dag.t -> Platform.t -> t -> float
(** Completion time of the last task ([0.] on an empty graph). *)

val tasks_of_proc : Dag.t -> Platform.t -> t -> int -> int list
(** Tasks placed on a processor, sorted by start then finish time (so a
    zero-duration task sharing a start instant precedes longer ones).
    Scans all [n] tasks: a per-processor sweep over every processor should
    use {!tasks_by_proc} instead (O(n + p) total, not O(n·p)). *)

val tasks_by_proc : Dag.t -> Platform.t -> t -> int array * int array
(** [(off, order)]: all tasks stable-sorted by finish, then by start
    ({!Radix.sort}), then grouped by a stable counting sort by processor,
    so each group is in (start, finish, id) order.  The
    tasks of processor [p] are [order.(off.(p)) .. order.(off.(p+1) - 1)],
    in exactly the order {!tasks_of_proc} returns them (the id tie-break
    matches its stable sort, zero-duration ties included).
    @raise Invalid_argument if any task's processor index is out of range. *)

val finishes : Dag.t -> Platform.t -> t -> float array
(** All finish times in one flat pass; [finishes g p s].(i) is bit-identical
    to [finish g p s i]. *)
