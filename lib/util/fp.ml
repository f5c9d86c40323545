(* A loop rather than a local recursive function, which would allocate a
   closure over [t] and [c] on every call; the [Float.succ] sequence is the
   same. *)
let lb_plus t c =
  let x = ref (t +. c) in
  while not (!x -. c >= t) do
    x := Float.succ !x
  done;
  !x

let default_eps = 1e-6

(* Each bound is computed exactly as the validator's historical inline
   forms ([a > b +. eps], [a < b -. eps]): switching call sites to these
   helpers cannot change a single comparison result. *)
(* Validation guards.  NaN satisfies no [<] comparison, so the historical
   [x < 0.] builder checks silently accepted NaN weights and sizes — and a
   single NaN poisons every downstream max/sum/staircase computation.  These
   are the one sanctioned entry checks: builders reject non-finite model
   quantities, capacity checks additionally admit [+infinity] ("unbounded"). *)
let check_finite ~what x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "%s: non-finite value (%h)" what x)

let check_not_nan ~what x =
  if Float.is_nan x then invalid_arg (Printf.sprintf "%s: NaN" what)

let eq ?(eps = default_eps) a b = Float.abs (a -. b) <= eps
let leq ?(eps = default_eps) a b = a <= b +. eps
let geq ?(eps = default_eps) a b = a >= b -. eps
let lt ?(eps = default_eps) a b = a < b -. eps
let gt ?(eps = default_eps) a b = a > b +. eps
