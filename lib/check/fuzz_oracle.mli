(** Named property oracles for the differential fuzzer.

    Each oracle is a pure predicate over one generated {!Fuzz_instance.t};
    the engine runs every registered oracle on every case.  The registry
    cross-checks the repository's independent components against each other:
    heuristics vs the validity oracle, makespans vs the lower bound, the
    exact solver vs the heuristics (both directions: optimality {e and}
    feasibility), optimised vs reference code paths, serialisation
    round-trips, and the parallel runtime's jobs-invariance contract. *)

type verdict =
  | Pass
  | Fail of string list  (** one message per violated property *)
  | Skip of string  (** oracle not applicable (e.g. instance too large) *)

type config = {
  eps : float;  (** tolerance handed to {!Validator.validate} and to makespan comparisons *)
  exact_node_limit : int;  (** branch-and-bound budget of the exact cross-checks *)
  exact_task_limit : int;  (** largest instance the exact oracles run on *)
  jobs_task_limit : int;  (** largest instance the jobs-invariance oracle runs on *)
}

val default_config : config
(** [eps = 1e-6], exact solver on instances of at most 7 tasks with a
    60k-node budget, jobs-invariance on at most 14 tasks. *)

type t = {
  name : string;
  doc : string;
  check : config -> Fuzz_instance.t -> verdict;
}

val all : t list
(** The full registry: [validator], [lower-bound], [reference-agreement],
    [exact-dominates], [exact-agreement], [infeasibility], [serialization],
    [wire-roundtrip], [jobs-invariance], [sim-parity], [noise0-fixpoint],
    [online-dominance], [replay-determinism].

    [exact-agreement] cross-checks three independent routes to the optimum
    on tiny instances: the commit/undo branch-and-bound ({!Exact.solve}),
    the per-node-copy reference search ({!Exact.solve_reference}), and — on
    instances of at most 3 tasks with finite memory caps — the paper's ILP
    through the built-in MIP.  Instances within [eps] of the feasibility
    boundary are tolerated in the infeasible-vs-optimal direction (the LP
    accepts dust-level capacity violations); see the committed
    [exact-agreement-seed42-*] corpus entries.

    [wire-roundtrip] pins the daemon's binary codec (lib/serve): for every
    algorithm selector, encoding the instance as a request — and the
    dispatcher's response to it — then decoding and re-encoding must
    reproduce the bytes exactly; truncations, corrupted bytes, bad
    version/kind bytes and oversized declared lengths must come back as
    {!Wire.error} values, never as exceptions; and the cache key must be
    invariant under the request id and nothing else.

    [sim-parity] pins the flat verification pipeline to the verbatim
    pre-flattening implementations: {!Validator.validate} vs
    {!Validator.validate_reference} (verdict, every message and the message
    order — also on deterministically corrupted schedules exercising each
    error phase, and with a jobs=2 pool vs serial),
    {!Events.memory_trace} vs {!Events.memory_trace_reference} (bit-equal
    arrays) and {!Sched_stats.compute} vs {!Sched_stats.compute_reference}
    (every field). *)

val names : string list
val find : string -> t option
