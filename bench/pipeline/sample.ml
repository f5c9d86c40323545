(* Summaries of timing samples. *)

(* [pct q xs]: the [q]-quantile of the samples, linearly interpolated between
   order statistics ([Stats.quantile]); [0.] on no samples, so a metric is
   always a number. *)
let pct q xs = match xs with [] -> 0. | xs -> Stats.quantile q xs

(* The three cut points of Python's [statistics.quantiles(xs, n=4)] (its
   default "exclusive" method), so that a spread printed by [--runs] is the
   one an outside reader recomputes from the same values.  Needs at least
   two samples; a single sample is its own quartiles. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let m = Array.length a in
  if m = 0 then invalid_arg "Sample.quartiles: no samples"
  else if m = 1 then (a.(0), a.(0), a.(0))
  else
    (* Same integer arithmetic and interpolation form as CPython's, so the
       floats agree to the last bit. *)
    let cut i =
      let j = max 1 (min (m - 1) (i * (m + 1) / 4)) in
      let delta = (i * (m + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (cut 1, cut 2, cut 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, med, q3 = quartiles xs in
  if Float.equal med 0. then 0. else (q3 -. q1) /. Float.abs med
