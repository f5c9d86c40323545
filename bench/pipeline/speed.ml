(* Machine-speed correction for wall-clock timings.

   On a shared host the same deterministic work runs at very different
   speeds from one minute to the next: on a 2-core x86-64 container shared
   with other tenants, a fixed planning loop took anywhere from 1.4 s to
   3.5 s within a few minutes.  So the timed phases are interleaved with a
   fixed calibration kernel that calls no code of the repository; its
   duration tracks how fast the machine runs at that moment.  A timed
   interval is reported scaled by [nominal / kernel time] around it: on an
   idle machine the factor is 1 and corrected equals raw, and a change to
   the code under test moves the corrected time exactly as it moves the raw
   one. *)

(* A 64 MB array walked by dependent loads at addresses from a full-period
   LCG, so every step is a cache miss the prefetcher cannot hide unless the
   shared last-level cache still holds the line: the walk slows down as
   other tenants contend for that cache and for memory bandwidth, which is
   what slows the 10^6-task pipeline most.  It lives outside the OCaml heap
   so that it does not change how the collector paces the workloads. *)
let ring =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 23) in
     Bigarray.Array1.fill a 0;
     a)

let chase steps =
  let a = Lazy.force ring in
  let mask = Bigarray.Array1.dim a - 1 in
  let i = ref 0 in
  for _ = 1 to steps do
    i := ((!i * 0x5DEECE66D) + 11 + a.{!i}) land mask
  done;
  ignore (Sys.opaque_identity !i)

(* Memory latency, then sorting and allocating like the planners do (float
   comparisons through a closure, short-lived lists for the minor heap),
   sized to take about [nominal] seconds on an idle core. *)
let kernel () =
  chase 12_000;
  let a = Array.init 8_192 (fun i -> float_of_int (i * 7919 mod 8_209)) in
  Array.sort Float.compare a;
  let l = List.init 8_192 (fun i -> i lxor 0x5bd1) in
  ignore (Sys.opaque_identity (List.fold_left ( + ) 0 (List.rev l)))

let nominal = 0.004

type t = {
  mutable samples : (float * float) list;  (** (instant, factor), newest first *)
  mutable last : float;
}

let create () = { samples = []; last = Float.neg_infinity }

(* One reading: the median of three kernel runs, so a timer tick or a minor
   collection landing inside one run does not skew it. *)
let sample t =
  let run () =
    let t0 = Clock.now () in
    kernel ();
    Clock.now () -. t0
  in
  let d = Sample.pct 0.5 [ run (); run (); run () ] in
  let now = Clock.now () in
  t.samples <- (now, nominal /. d) :: t.samples;
  t.last <- now

(* Take a reading if a quarter second has passed since the last one: call
   it between units of timed work, never inside one. *)
let tick t = if Clock.now () -. t.last >= 0.25 then sample t

(* The factor at an instant, interpolated linearly between the readings
   around it (the nearest one outside their span; 1 with no reading). *)
let factor_at t time =
  let rec go = function
    | (t1, f1) :: ((t0, f0) :: _ as rest) ->
      if time >= t1 then f1
      else if time >= t0 then f0 +. ((f1 -. f0) *. (time -. t0) /. (t1 -. t0))
      else go rest
    | [ (_, f) ] -> f
    | [] -> 1.
  in
  go t.samples

(* [correct t ~start ~stop]: the interval's length at nominal machine speed. *)
let correct t ~start ~stop = (stop -. start) *. factor_at t ((start +. stop) /. 2.)

let median_factor t = Sample.pct 0.5 (List.map snd t.samples)
