(** Level computations over a DAG, parameterised by node and edge weights.

    [bottom_level i] is the heaviest path weight from [i] to a sink,
    including [i]'s own node weight — the quantity HEFT's upward rank
    instantiates with mean costs.  [top_level i] is the heaviest path weight
    from a source to [i], excluding [i].  [edge_weight] is called with an
    edge id. *)

val bottom_levels :
  Dag.t -> node_weight:(int -> float) -> edge_weight:(int -> float) -> float array

val top_levels :
  Dag.t -> node_weight:(int -> float) -> edge_weight:(int -> float) -> float array

val critical_parent : Dag.t -> bottom:float array -> int -> int option
(** Child of [i] with the largest bottom level, if any (ties: smallest id). *)
