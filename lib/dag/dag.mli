(** Application model: a directed acyclic task graph (§3 of the paper).

    Each task [i] carries two processing times, [w_blue] (on a blue / CPU-side
    processor) and [w_red] (on a red / accelerator-side processor).  Each edge
    [(i, j)] carries a data file of size [F(i,j)] produced by [i] and consumed
    by [j], and a transfer time [C(i,j)] paid when [i] and [j] execute on
    different memories.

    A graph is stored once, as flat arrays: task attributes indexed by task
    id, edge attributes indexed by edge id (eid), and compressed-sparse-row
    (CSR) adjacency rows over them (see {!Csr}).  Task ids and eids are
    dense and count from 0 in {!Builder} insertion order.  Graphs are
    immutable once finalised; build them with {!Builder}.  The {!task} and
    {!edge} records are views built on demand for text I/O and other cold
    paths; hot loops read the {!Csr} arrays. *)

type task = {
  id : int;
  name : string;
  w_blue : float;  (** processing time on a blue processor, [W^(1)] *)
  w_red : float;  (** processing time on a red processor, [W^(2)] *)
}

type edge = {
  eid : int;
  src : int;
  dst : int;
  size : float;  (** file size [F(i,j)] held in memory *)
  comm : float;  (** transfer time [C(i,j)] across memories *)
}

type t

(** {1 Construction} *)

module Builder : sig
  type dag := t
  type t

  val create : unit -> t

  val add_task : t -> ?name:string -> w_blue:float -> w_red:float -> unit -> int
  (** Returns the new task id (dense, starting at 0).  Processing times must
      be non-negative. *)

  val add_edge : t -> src:int -> dst:int -> size:float -> comm:float -> unit
  (** Adds a dependency edge with its file size and transfer time; its eid
      is the number of edges accepted before it.  Dangling endpoints,
      self-loops, non-finite or negative attributes and duplicate
      (src, dst) pairs are rejected, in that order, in expected O(1)
      amortised time.
      A rejected edge leaves the builder unchanged, so a caller may catch
      the exception and go on.
      @raise Invalid_argument on a rejected edge. *)

  val finalize : t -> dag
  (** Checks acyclicity and freezes the graph: fills the CSR rows by
      counting sort and computes the topological order and layers.
      @raise Invalid_argument on a cyclic graph. *)
end

(** {1 Accessors} *)

val n_tasks : t -> int
val n_edges : t -> int

val name : t -> int -> string
(** Task name. *)

val task : t -> int -> task
(** A fresh record view of one task. *)

val edge : t -> int -> edge
(** A fresh record view of one edge. *)

val tasks : t -> task array
(** Every task as a fresh record, by id: O(n) allocation, for cold paths. *)

val edges : t -> edge array
(** Every edge as a fresh record, by eid: O(m) allocation, for cold paths. *)

val find_edge : t -> src:int -> dst:int -> edge option
(** Scans the outgoing row of [src]. *)

val sources : t -> int list
(** Tasks without predecessors. *)

val sinks : t -> int list
(** Tasks without successors. *)

val mem_req : t -> int -> float
(** [mem_req g i] is the paper's [MemReq(i)]: the total size of input plus
    output files of task [i], i.e. the minimum memory any execution of [i]
    needs. *)

val in_size : t -> int -> float
(** Total size of the input files of a task. *)

val out_size : t -> int -> float
(** Total size of the output files of a task. *)

val total_file_size : t -> float

val w_min : t -> int -> float
(** [min w_blue w_red] for a task. *)

(** {1 Per-pool durations}

    The scheduling core reads processing times as pool-major columns:
    [durations.(q).(i)] is the time of task [i] on memory pool [q]. *)

val default_durations : t -> float array array
(** The dual-memory durations, [[| Csr.w_blue g; Csr.w_red g |]]: the
    graph's own arrays, READ-ONLY like every {!Csr} view. *)

val check_durations : fn:string -> t -> float array array -> unit
(** Checks caller-supplied duration columns as {!Builder.add_task} checks
    processing times: at least one column, one entry per task, every entry
    finite and non-negative.  [fn] prefixes the error message.
    @raise Invalid_argument otherwise. *)

(** {1 The arena (CSR / SoA arrays)}

    These are the graph's own arrays, not copies: they are built once at
    {!Builder.finalize} and are READ-ONLY, so mutating one corrupts the
    graph.  Each task has an outgoing and an incoming row of packed edge
    ids, in ascending eid order, i.e. in builder insertion order.  A fold
    over a row therefore visits a task's edges in one fixed order, which is
    what keeps float accumulations over rows bit-identical from build to
    build. *)

module Csr : sig
  val succ_off : t -> int array
  (** Length [n_tasks + 1]; outgoing row of task [i] is the packed index
      range [succ_off.(i) .. succ_off.(i+1) - 1]. *)

  val succ_eid : t -> int array
  (** Packed outgoing edge ids (ascending within a row). *)

  val succ_dst : t -> int array
  (** Destination task of the packed edge at the same index. *)

  val pred_off : t -> int array
  val pred_eid : t -> int array

  val pred_src : t -> int array
  (** Source task of the packed incoming edge at the same index. *)

  val e_src : t -> int array
  (** Edge attributes, indexed by eid. *)

  val e_dst : t -> int array
  val e_size : t -> float array
  val e_comm : t -> float array

  val w_blue : t -> float array
  (** Task attributes, indexed by task id. *)

  val w_red : t -> float array

  val in_sz : t -> float array
  (** Per-task total input / output file sizes ({!in_size} / {!out_size}
      precomputed). *)

  val out_sz : t -> float array
  val in_degree : t -> int -> int
  val out_degree : t -> int -> int
  val max_in_degree : t -> int

  val n_layers : t -> int
  (** Topological layers: layer 0 holds the sources, and each task sits at
      [1 + max] of its parents' layers.  Tasks within a layer are mutually
      independent. *)

  val layer_of : t -> int array
  (** Layer index of each task. *)

  val layer_off : t -> int array
  (** Length [n_layers + 1] offsets into {!layer_tasks}. *)

  val layer_tasks : t -> int array
  (** Task ids grouped by layer, ascending ids within a layer. *)
end

(** {1 Orders and paths} *)

val topological_order : t -> int array
(** A fresh copy of the topological order computed at finalize: Kahn's
    algorithm taking the smallest ready task id first. *)

val is_topological : t -> int array -> bool

val longest_path : t -> node_weight:(int -> float) -> edge_weight:(int -> float) -> float
(** Weight of a heaviest source-to-sink path, counting node weights of every
    node on the path and edge weights (by eid) of every edge. *)

val critical_path_min : t -> float
(** Longest path using [min w_blue w_red] per task and zero edge weight: a
    makespan lower bound on any platform. *)

(** {1 Serialisation} *)

val to_string : t -> string
(** Line-oriented text format, re-read by {!of_string}. *)

val of_string : string -> t
(** @raise Invalid_argument on malformed input. *)

val to_dot : t -> string
(** GraphViz rendering: one box per task labelled with its times, one arrow
    per edge labelled with its file size and transfer time. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: node/edge counts, degree and cost ranges. *)
