(** Deterministic domain-pool parallel runtime for the simulation campaign.

    A fixed-size pool of OCaml 5 domains drains a bounded work queue; callers
    submit thunks and receive futures.  The design contract is
    {b reproducibility}: the combinators return results in submission order
    regardless of completion order, and {!map_seeded} derives one independent
    RNG stream per task {e before} dispatch (via {!Rng.split}), so every
    result is bit-identical for every [jobs] count — [jobs = 1] is exactly
    the serial code path (no domains are spawned, thunks run inline at
    submission).

    Error contract: a task exception is captured together with its raw
    backtrace and re-raised at the await point ({!await}, {!parallel_map},
    ...), never swallowed and never a hang.  After a failed batch the pool
    remains usable.

    The pool is not reentrant by blocking: a task running {e on} the pool
    that calls back into a combinator of the same pool executes the nested
    work inline on its own domain (preventing queue deadlock). *)

type t
(** A pool handle.  Thread-safe: any number of client threads/domains may
    submit concurrently. *)

type 'a future
(** The pending result of a submitted task. *)

exception Cancelled
(** Raised by {!await} on a future that was cancelled before it started. *)

val default_jobs : unit -> int
(** Number of recognised CPUs ({!Domain.recommended_domain_count}). *)

val create : ?queue_capacity:int -> jobs:int -> unit -> t
(** [create ~jobs ()] starts a pool of [jobs] worker domains.  [jobs = 1]
    starts no domains at all: submission runs the thunk immediately on the
    caller, byte-for-byte the serial path.  [queue_capacity] (default
    [max 64 (4 * jobs)]) bounds the work queue; a full queue blocks
    {!submit} (backpressure) until a worker drains an item.
    @raise Invalid_argument if [jobs < 1] or [queue_capacity < 1]. *)

val jobs : t -> int
(** Worker count the pool was created with (1 = serial). *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task; blocks while the queue is full.  On a serial pool, or
    when called from one of this pool's own workers, the thunk runs inline
    and the returned future is already resolved.
    @raise Invalid_argument if the pool has been shut down. *)

val await : 'a future -> 'a
(** Block until the task finished; returns its value or re-raises its
    exception with the original backtrace.  @raise Cancelled if the future
    was cancelled first. *)

val poll : 'a future -> bool
(** [true] once the task has finished (with a value, an exception or a
    cancellation) — i.e. exactly when {!await} would return without
    blocking.  Never blocks beyond the pool mutex.  The serve dispatcher
    uses this to stream responses in request order: the head-of-line
    response is written as soon as it resolves, without blocking the read
    loop on tasks that are still running. *)

val cancel : 'a future -> bool
(** Try to cancel a task that has not started running; [true] on success.
    A running or finished task is not interrupted ([false]). *)

val parallel_map : ?chunk:int -> t -> f:('a -> 'b) -> 'a list -> 'b list
(** [parallel_map pool ~f xs] applies [f] to every element, in parallel,
    returning results in input order (deterministic).  [chunk] (default 1)
    groups that many consecutive elements into one task to amortise
    dispatch overhead.  If any application raises, the remaining unstarted
    tasks of the batch are cancelled and the exception of the
    {e lowest-index} failing element is re-raised with its original
    backtrace (deterministic error too). *)

val parallel_iter : ?chunk:int -> t -> f:('a -> unit) -> 'a list -> unit
(** [parallel_map] for effects; same ordering and error contract. *)

val map_seeded : ?chunk:int -> t -> rng:Rng.t -> f:(Rng.t -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!parallel_map} but hands each element its own RNG, split off
    [rng] sequentially {e before} any task is dispatched.  The [k]-th
    element always receives the [k]-th split stream, so outputs are
    independent of [jobs] and of scheduling order.  [rng] is advanced
    exactly [List.length xs] times. *)

(** Lightweight observability for the bench harness. *)
type counters = {
  tasks_run : int;  (** tasks executed to completion (ok or raised) *)
  tasks_failed : int;  (** tasks whose thunk raised *)
  tasks_cancelled : int;  (** tasks cancelled before starting *)
  batches : int;  (** [parallel_map]/[parallel_iter]/[map_seeded] calls *)
  max_queue : int;  (** high-water mark of the queue length *)
  submit_wait_s : float;  (** total time submitters spent in backpressure *)
  worker_wait_s : float;  (** total time workers spent idle on the queue *)
  worker_busy_s : float;  (** total time workers spent running tasks *)
}

val counters : t -> counters
val reset_counters : t -> unit

val shutdown : t -> unit
(** Drain the queue, stop and join every worker domain.  Idempotent.
    Futures still pending when shutdown is called are completed first. *)

val with_pool : ?queue_capacity:int -> jobs:int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown], shutdown guaranteed on exceptions. *)
