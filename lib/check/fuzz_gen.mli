(** Seeded instance generation for the differential fuzzer.

    All randomness flows through the supplied {!Rng.t}, so a campaign is
    reproducible from one integer seed and independent of the worker count
    (the engine hands each case its own split stream).  The space covered is
    the cross product of DAG shape (the paper's layered-random/LU/Cholesky
    families plus adversarial chains, forks, broadcast trees, disconnected
    unions and independent task bags), cost regime (zero-bandwidth,
    zero-file, slow-link, strong heterogeneity, zero-work tasks) and
    platform regime (processor counts 1-3 per memory; caps from unbounded
    through an alpha grid of the measured HEFT peak down to just-below-peak,
    exactly the single-task minimum, provably below it, asymmetric, and
    zero). *)

val instance : Rng.t -> Fuzz_instance.t
(** Draw one case; the label records the shape, cost and platform regime. *)
