(** Shared machinery for tiled dense linear-algebra DAGs (§6.1.2).

    Tasks read and write 192x192 tiles tracked by coordinates; an edge is
    added from the last writer of each tile a task reads (including the tile
    it updates in place).  Every edge carries one tile ([F = 1]) and costs
    one CPU<->GPU transfer ([C = 50] ms).  After construction the graph is
    passed through {!Broadcast.linearize} so that multi-consumer tiles are
    broadcast through pipelines of fictitious zero-work tasks, as in the
    paper. *)

type t

val create : unit -> t

val name : string -> int array -> string
(** [name "gemm" [| i; j; k |]] is ["gemm_i_j_k"]: the bytes of
    [Printf.sprintf "gemm_%d_%d_%d" i j k], without the format
    interpreter.
    @raise Invalid_argument on a negative index. *)

val add_kernel : t -> Kernels.kernel -> name:string -> reads:(int * int) list -> writes:int * int -> unit
(** Adds a task running the given kernel; dependencies come from the last
    writers of [reads] plus the last writer of [writes] (in-place update).
    Duplicate writers are de-duplicated, and the edges are added in
    ascending order of their source id. *)

val finalize : ?pipeline_broadcasts:bool -> t -> Dag.t
(** Builds the DAG; [pipeline_broadcasts] (default true) applies
    {!Broadcast.linearize}. *)
