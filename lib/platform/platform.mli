(** Hybrid platforms: [k >= 1] memory pools, each shared by a contiguous
    block of identical processors.

    Processors are numbered pool by pool: pool [0] owns
    [0 .. procs_0 - 1], pool [1] the next block, and so on.  The paper's
    dual-memory platform of §3.1 (Figure 1) is the 2-pool case, with
    {!Blue} naming pool [0] and {!Red} pool [1]; more than two memories is
    the paper's §7 future work.  The scheduling core only uses the pool
    API; the dual-memory views below serve the layers that speak in
    blue/red terms, and raise [Invalid_argument] on any other pool count. *)

type memory = Blue | Red  (** pools [0] and [1] of a dual-memory platform *)

val other : memory -> memory
val memory_to_string : memory -> string
val memories : memory list

type pool = {
  procs : int;  (** processors attached to this memory *)
  capacity : float;  (** memory capacity; [infinity] = unbounded *)
}

type t

val of_pools : pool list -> t
(** @raise Invalid_argument on an empty list, a non-positive processor
    count, or a NaN or negative capacity. *)

val n_pools : t -> int
val n_procs : t -> int
val pool_capacity : t -> int -> float

val procs_of_pool : t -> int -> int list
(** Processor indices of a pool, ascending. *)

val pool_of_proc : t -> int -> int
(** @raise Invalid_argument on an out-of-range processor index. *)

val with_capacities : t -> float list -> t
(** The same processors with one new capacity per pool.
    @raise Invalid_argument when the list length is not {!n_pools}. *)

(** {2 The dual-memory platform}

    Every function below except {!make} and {!unbounded} raises
    [Invalid_argument] unless the platform has exactly two pools. *)

val make : p_blue:int -> p_red:int -> m_blue:float -> m_red:float -> t
(** The 2-pool platform [[{p_blue; m_blue}; {p_red; m_red}]].
    @raise Invalid_argument unless both processor counts are positive and
    both capacities non-negative (NaN is rejected, [infinity] allowed). *)

val unbounded : p_blue:int -> p_red:int -> t
(** Both memories unbounded: the memory-oblivious setting of HEFT/MinMin. *)

val with_bounds : t -> m_blue:float -> m_red:float -> t
val capacity : t -> memory -> float
val n_procs_of : t -> memory -> int

val memory_of_proc : t -> int -> memory
(** @raise Invalid_argument on an out-of-range processor index. *)

val procs_of : t -> memory -> int list
(** Processor indices operating on the given memory. *)

val first_proc : t -> memory -> int

val w : Dag.t -> int -> memory -> float
(** Processing time of a task on a processor of the given memory. *)
