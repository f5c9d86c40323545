(* Every wall-clock sample of the pipeline benchmark goes through [now]: the
   readings are reported, never fed back into any scheduling decision, so
   the nondeterminism is confined to this one pragma'd line. *)
(* lint: allow determinism -- the timing harness measures wall-clock by definition *)
let now () = Unix.gettimeofday ()
