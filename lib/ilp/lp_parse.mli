(** Reader for the CPLEX-LP subset emitted by {!Lp_format} (and by most
    solvers' exporters): objective, constraints, bounds, binaries, generals.

    Used to round-trip exported models in the test suite and to re-import
    instances tweaked by hand.  Variables are created in order of first
    appearance; names are significant. *)

val of_string : string -> Lp.t
(** @raise Invalid_argument on input outside the supported subset. *)
