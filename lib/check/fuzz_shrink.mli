(** Greedy minimiser for failing fuzz instances.

    Simplification moves: delete a task (with its incident edges), delete an
    edge, drop a side's extra processors, loosen a memory cap to infinity.
    The loop keeps any candidate on which the oracle still fails and runs to
    a fixpoint, so the result is 1-minimal w.r.t. the moves.  Deterministic:
    candidates are tried in a fixed order. *)

type result = {
  instance : Fuzz_instance.t;  (** smallest failing instance found *)
  rounds : int;  (** accepted simplification steps *)
  attempts : int;  (** oracle evaluations spent *)
}

val shrink : Fuzz_oracle.config -> Fuzz_oracle.t -> Fuzz_instance.t -> result
(** [shrink cfg oracle inst] assumes [oracle] currently fails on [inst]
    (otherwise it returns [inst] unchanged).  It spends at most 1500 oracle
    evaluations. *)

(** {2 Individual moves (exposed for tests)} *)

val remove_task : Fuzz_instance.t -> int -> Fuzz_instance.t
(** Delete a task and its incident edges; remaining ids are re-densified in
    order. *)

val remove_edge : Fuzz_instance.t -> int -> Fuzz_instance.t
