(* Tests for the utility substrate: Rng, Staircase, Stats, Csv,
   Table. *)

open Helpers

(* ---------------------------------------------------------------- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_bool "different seeds diverge" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues the stream" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  check_bool "split differs from parent" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_bounds () =
  let g = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int g 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_incl_bounds () =
  let g = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int_incl g (-5) 5 in
    check_bool "in range" true (v >= -5 && v <= 5)
  done

let test_rng_int_rejects () =
  let g = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int g 0))

let test_rng_float_bounds () =
  let g = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float g 2.5 in
    check_bool "in range" true (v >= 0. && v < 2.5)
  done

let test_rng_int_covers () =
  (* All residues of a small bound appear. *)
  let g = Rng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int g 5) <- true
  done;
  check_bool "all values hit" true (Array.for_all Fun.id seen)

let rng_shuffle_permutation =
  qtest "shuffle is a permutation" QCheck.(pair small_int (list small_int)) (fun (seed, l) ->
      let a = Array.of_list l in
      Rng.shuffle (Rng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let rng_sample_distinct =
  qtest "sample_distinct: k distinct sorted values in range"
    QCheck.(pair small_int (pair (int_range 0 30) (int_range 0 30)))
    (fun (seed, (a, b)) ->
      let k = min a b and n = max a b in
      let s = Rng.sample_distinct (Rng.create seed) ~k ~n in
      List.length s = k
      && List.for_all (fun v -> v >= 0 && v < n) s
      && List.sort_uniq compare s = s)

(* ---------------------------------------------------------- Staircase --- *)

let test_stair_constant () =
  let s = Staircase.create 5. in
  check_float "value at 0" 5. (Staircase.value s 0.);
  check_float "value far" 5. (Staircase.value s 1e9);
  check_float "final" 5. (Staircase.final_value s)

let test_stair_add_from () =
  let s = Staircase.create 10. in
  Staircase.add_from s 2. (-3.);
  check_float "before" 10. (Staircase.value s 1.9);
  check_float "at" 7. (Staircase.value s 2.);
  check_float "after" 7. (Staircase.value s 100.);
  Staircase.add_from s 5. 3.;
  check_float "released" 10. (Staircase.value s 5.);
  check_float "middle still low" 7. (Staircase.value s 3.)

let test_stair_min_from () =
  let s = Staircase.create 10. in
  Staircase.add_from s 2. (-6.);
  Staircase.add_from s 4. 6.;
  check_float "min over all" 4. (Staircase.min_from s 0.);
  check_float "min after dip" 10. (Staircase.min_from s 4.);
  check_float "min inside dip" 4. (Staircase.min_from s 3.)

let test_stair_suffix () =
  let s = Staircase.create 10. in
  Staircase.add_from s 2. (-6.);
  Staircase.add_from s 4. 6.;
  check_float "suffix after dip" 4. (Staircase.earliest_suffix_ge s ~level:5. ~from:0.);
  check_float "level below dip: immediately" 0. (Staircase.earliest_suffix_ge s ~level:3. ~from:0.);
  check_float "from respected" 1. (Staircase.earliest_suffix_ge s ~level:3. ~from:1.)

let test_stair_suffix_infeasible () =
  let s = Staircase.create 10. in
  Staircase.add_from s 3. (-8.);
  check_float "tail too low" infinity (Staircase.earliest_suffix_ge s ~level:5. ~from:0.)

let test_stair_infinite_capacity () =
  let s = Staircase.create infinity in
  Staircase.add_from s 1. (-5.);
  check_float "still infinite" infinity (Staircase.value s 2.);
  check_float "always feasible" 0. (Staircase.earliest_suffix_ge s ~level:1e12 ~from:0.)

let test_stair_copy_isolated () =
  let s = Staircase.create 5. in
  let c = Staircase.copy s in
  Staircase.add_from s 1. (-2.);
  check_float "copy untouched" 5. (Staircase.value c 2.);
  check_float "original changed" 3. (Staircase.value s 2.)

let test_stair_snap_regression () =
  (* Regression for the breakpoint float-equality bug: an update eps-close to
     an existing breakpoint used to compare times with [<>] and split a
     sliver step; it must snap onto the breakpoint instead. *)
  let s = Staircase.create 10. in
  Staircase.add_from s 0.1 (-1.);
  let len = Staircase.length s in
  Staircase.add_from s (0.1 +. 1e-12) (-1.);
  check_int "no sliver step (from above)" len (Staircase.length s);
  check_float "snapped update applied" 8. (Staircase.value s 0.2);
  check_float "before the breakpoint unchanged" 10. (Staircase.value s 0.05);
  Staircase.add_from s (0.1 -. 1e-12) (-1.);
  check_int "no sliver step (from below)" len (Staircase.length s);
  check_float "applied at the breakpoint" 7. (Staircase.value s 0.1)

(* Generator for update sequences whose times land exactly on, eps-close to,
   and just beyond existing breakpoints: (half-integer time, delta, jitter
   index).  Jitters below eps must snap; 1e-8 legitimately splits. *)
let stair_jittered_ops = QCheck.(list (triple (int_range 0 40) (int_range (-3) 3) (int_range 0 4)))

let stair_apply_jittered s ops =
  let jit = [| 0.; 1e-12; -1e-12; 4e-10; 1e-8 |] in
  List.iter
    (fun (t2, d, j) ->
      let t = Float.max 0. ((float_of_int t2 /. 2.) +. jit.(j)) in
      if d <> 0 then Staircase.add_from s t (float_of_int d))
    ops

let stair_gap_invariant =
  qtest ~count:300 "gaps > eps and values coalesced under eps-close updates" stair_jittered_ops
    (fun ops ->
      let s = Staircase.create 50. in
      stair_apply_jittered s ops;
      let rec ok = function
        | (x0, v0) :: ((x1, v1) :: _ as tl) ->
          x1 -. x0 > 1e-9 && abs_float (v1 -. v0) > 1e-9 && ok tl
        | _ -> true
      in
      match Staircase.breakpoints s with
      | (x0, _) :: _ as bps -> Float.equal x0 0. && ok bps
      | [] -> false)

let stair_fast_queries_match_scan =
  qtest ~count:300 "min_from / earliest_suffix_ge match the linear scans bit-for-bit"
    stair_jittered_ops (fun ops ->
      let s = Staircase.create 50. in
      stair_apply_jittered s ops;
      let probes = List.init 45 (fun k -> float_of_int k /. 2.) in
      List.for_all
        (fun t ->
          Float.equal (Staircase.min_from s t) (Staircase.min_from_scan s t)
          && List.for_all
               (fun level ->
                 Float.equal
                   (Staircase.earliest_suffix_ge s ~level ~from:t)
                   (Staircase.earliest_suffix_ge_scan s ~level ~from:t))
               [ 30.; 45.; 50.; 50.5; 60. ])
        probes)

let stair_min_from_brute =
  qtest ~count:300 "min_from agrees with brute force on a grid"
    QCheck.(list (pair (int_range 0 20) (int_range (-5) 5)))
    (fun updates ->
      let s = Staircase.create 100. in
      List.iter (fun (t, d) -> Staircase.add_from s (float_of_int t) (float_of_int d)) updates;
      let value_ref t =
        100.
        +. List.fold_left
             (fun acc (t0, d) -> if float_of_int t0 <= t then acc +. float_of_int d else acc)
             0. updates
      in
      List.for_all
        (fun k ->
          let t = float_of_int k /. 2. in
          let brute =
            List.fold_left
              (fun m j -> Float.min m (value_ref (Float.max t (float_of_int j /. 2.))))
              infinity (List.init 45 Fun.id)
          in
          abs_float (Staircase.min_from s t -. brute) < 1e-6)
        (List.init 41 Fun.id))

(* Reference implementation: a staircase as an explicit list of (t, delta)
   updates, evaluated naively. *)
let stair_matches_reference =
  qtest ~count:300 "staircase matches naive reference"
    QCheck.(list (pair (int_range 0 20) (int_range (-5) 5)))
    (fun updates ->
      let s = Staircase.create 100. in
      let apply (t, d) = Staircase.add_from s (float_of_int t) (float_of_int d) in
      List.iter apply updates;
      let reference t =
        100.
        +. List.fold_left
             (fun acc (t0, d) -> if float_of_int t0 <= t then acc +. float_of_int d else acc)
             0. updates
      in
      List.for_all
        (fun probe ->
          let t = float_of_int probe /. 2. in
          abs_float (Staircase.value s t -. reference t) < 1e-6)
        (List.init 45 Fun.id))

let stair_suffix_is_correct =
  qtest ~count:300 "earliest_suffix_ge is the true infimum"
    QCheck.(pair (list (pair (int_range 0 20) (int_range (-5) 5))) (int_range 80 120))
    (fun (updates, level) ->
      let level = float_of_int level in
      let s = Staircase.create 100. in
      List.iter (fun (t, d) -> Staircase.add_from s (float_of_int t) (float_of_int d)) updates;
      let ok_from t =
        (* suffix check on a discrete probe grid (updates at integer times) *)
        List.for_all
          (fun k ->
            let t' = Float.max t (float_of_int k /. 2.) in
            Staircase.value s t' +. 1e-6 >= level)
          (List.init 45 Fun.id)
        && Staircase.final_value s +. 1e-6 >= level
      in
      let t = Staircase.earliest_suffix_ge s ~level ~from:0. in
      if Float.equal t infinity then not (ok_from 21.)
      else ok_from t && (Float.equal t 0. || not (ok_from (t -. 0.25))))

(* The journal must restore the staircase bit-for-bit: after [undo_to] the
   breakpoint list (times and values) and the final value equal those of a
   [copy] taken at the mark, under polymorphic compare (bitwise on floats
   here — every value is a finite sum of the same terms). *)
let stair_journal_undo_bitwise =
  qtest ~count:300 "journal undo_to restores the mark state bit-for-bit"
    QCheck.(triple stair_jittered_ops stair_jittered_ops stair_jittered_ops)
    (fun (pre, mid, post) ->
      let s = Staircase.create 50. in
      stair_apply_jittered s pre;
      Staircase.set_journal s true;
      let same_as snap =
        compare (Staircase.breakpoints s) (Staircase.breakpoints snap) = 0
        && Float.equal (Staircase.final_value s) (Staircase.final_value snap)
        && Staircase.length s = Staircase.length snap
      in
      let m1 = Staircase.mark s in
      let c1 = Staircase.copy s in
      stair_apply_jittered s mid;
      (* marks are LIFO: undo the inner one first, then the outer one *)
      let m2 = Staircase.mark s in
      let c2 = Staircase.copy s in
      stair_apply_jittered s post;
      Staircase.undo_to s m2;
      let inner_ok = same_as c2 in
      Staircase.undo_to s m1;
      inner_ok && same_as c1)

(* The forgetting-horizon contract: twin staircases take the same random
   updates, one of them also forgets at random rising horizons, and every
   update lands at or after the current horizon (times on a half-integer
   grid above it, jittered eps-close to breakpoints).  After every step the
   forgetting twin must keep the exact final value and global minimum, the
   same breakpoints from its live start on, and the same earliest-suffix
   answers whenever the full answer comes from a live step (both answers
   at most the horizon otherwise); an update below the horizon raises. *)
let stair_forget_twin =
  qtest ~count:300 "forget_before keeps the live window exact"
    QCheck.(
      list_of_size (Gen.int_range 0 150)
        (quad (int_range 0 3) (int_range 0 6) (int_range (-3) 3) (int_range 0 4)))
    (fun ops ->
      let jit = [| 0.; 1e-12; -1e-12; 4e-10; 1e-8 |] in
      let full = Staircase.create 50. and twin = Staircase.create 50. in
      let h = ref 0. in
      let levels = [ 40.; 45.; 49.; 50.; 50.5; 55.; 60. ] in
      (* The last non-final step of the full history below [level]. *)
      let rec last_below level acc = function
        | [] | [ _ ] -> acc
        | (x, v) :: rest -> last_below level (if v +. 1e-9 < level then Some x else acc) rest
      in
      let same () =
        let bps_full = Staircase.breakpoints full and bps_twin = Staircase.breakpoints twin in
        let live_start = fst (List.hd bps_twin) in
        let suffix_ok level =
          let a_full = Staircase.earliest_suffix_ge full ~level ~from:0. in
          let a_twin = Staircase.earliest_suffix_ge twin ~level ~from:0. in
          match last_below level None bps_full with
          | Some x when x >= live_start -> Float.equal a_full a_twin
          | _ -> Float.equal a_full a_twin || (a_full <= !h && a_twin <= !h)
        in
        Float.equal (Staircase.final_value full) (Staircase.final_value twin)
        && Float.equal (Staircase.min_from full 0.) (Staircase.min_from twin 0.)
        && List.equal
             (fun (x, v) (x', v') -> Float.equal x x' && Float.equal v v')
             (List.filter (fun (x, _) -> x >= live_start) bps_full)
             bps_twin
        && List.for_all suffix_ok levels
      in
      let step (kind, a, d, j) =
        let t = Float.max !h (!h +. (float_of_int a /. 2.) +. jit.(j)) in
        if kind = 0 then begin
          h := t;
          Staircase.forget_before twin t
        end
        else if d <> 0 then begin
          Staircase.add_from full t (float_of_int d);
          Staircase.add_from twin t (float_of_int d)
        end;
        same ()
      in
      List.for_all step ops
      && (!h < 0.5
         ||
         match Staircase.add_from twin (!h -. 0.5) 1. with
         | () -> false
         | exception Invalid_argument _ -> true))

(* ----------------------------------------------------------------- Fp --- *)

let fp_lb_plus_sound =
  qtest ~count:500 "lb_plus: (x -. c) >= t in float arithmetic"
    QCheck.(pair (float_bound_exclusive 1e6) (float_bound_exclusive 1e4))
    (fun (t, c) ->
      let x = Fp.lb_plus t c in
      x -. c >= t && x >= t +. c)

let test_fp_lb_plus_exact () =
  check_float "exact case" 3. (Fp.lb_plus 1. 2.);
  (* the motivating case: times built from non-representable fractions *)
  let t = 62.225000000000001 and c = 4. in
  let x = Fp.lb_plus t c in
  check_bool "window preserved" true (x -. c >= t)

(* The comparators promise bit-identity with the inline forms the validator
   historically used — check the equivalence on random operands. *)
let fp_cmp_agree =
  qtest ~count:500 "eq/leq/geq/lt/gt match their inline forms"
    QCheck.(triple (float_bound_exclusive 1e6) (float_bound_exclusive 1e6) (float_range 0. 1e-3))
    (fun (a, b, eps) ->
      Bool.equal (Fp.eq ~eps a b) (Float.abs (a -. b) <= eps)
      && Bool.equal (Fp.leq ~eps a b) (a <= b +. eps)
      && Bool.equal (Fp.geq ~eps a b) (a >= b -. eps)
      && Bool.equal (Fp.lt ~eps a b) (a < b -. eps)
      && Bool.equal (Fp.gt ~eps a b) (a > b +. eps))

let test_fp_cmp_edges () =
  check_bool "eq within the default eps" true (Fp.eq 1. (1. +. 1e-9));
  check_bool "eq beyond eps" false (Fp.eq 1. (1. +. 1e-3));
  check_bool "gt demands a margin beyond eps" false (Fp.gt (1. +. 1e-9) 1.);
  check_bool "gt past eps" true (Fp.gt 1.01 1.);
  check_bool "lt mirrors gt" true (Fp.lt 1. 1.01);
  check_bool "leq tolerates an eps overshoot" true (Fp.leq (1. +. 1e-9) 1.);
  check_bool "geq tolerates an eps undershoot" true (Fp.geq (1. -. 1e-9) 1.);
  check_bool "lt negates geq" (not (Fp.lt 1. 1.01)) (Fp.geq 1. 1.01)

(* -------------------------------------------------------------- Stats --- *)

let test_stats_mean () =
  check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check_bool "empty mean is nan" true (Float.is_nan (Stats.mean []))

let test_stats_geomean () = check_float_eps 1e-9 "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ])

let test_stats_stdev () =
  check_float_eps 1e-9 "stdev" 1. (Stats.stdev [ 1.; 2.; 3. ]);
  check_float "single value" 0. (Stats.stdev [ 5. ])

let test_stats_quantile () =
  let xs = [ 1.; 2.; 3.; 4. ] in
  check_float "median interpolates" 2.5 (Stats.median xs);
  check_float "q0" 1. (Stats.quantile 0. xs);
  check_float "q1" 4. (Stats.quantile 1. xs);
  Alcotest.check_raises "out of range" (Invalid_argument "Stats.quantile: q out of [0,1]")
    (fun () -> ignore (Stats.quantile 1.5 xs))

let test_stats_summary () =
  let s = Stats.summarize [ 3.; 1.; 2. ] in
  check_int "n" 3 s.Stats.n;
  check_float "min" 1. s.Stats.min;
  check_float "max" 3. s.Stats.max;
  check_float "median" 2. s.Stats.median

(* ---------------------------------------------------------------- Csv --- *)

let test_csv_escape () =
  check_string "plain" "abc" (Csv.escape_field "abc");
  check_string "comma" "\"a,b\"" (Csv.escape_field "a,b");
  check_string "quote" "\"a\"\"b\"" (Csv.escape_field "a\"b");
  check_string "newline" "\"a\nb\"" (Csv.escape_field "a\nb")

let test_csv_row () = check_string "row" "a,\"b,c\",d" (Csv.row_to_string [ "a"; "b,c"; "d" ])

let test_csv_write_roundtrip () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "memsched_test/sub/test.csv" in
  Csv.write path ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4" ] ];
  let ic = open_in path in
  let lines = List.init 3 (fun _ -> input_line ic) in
  close_in ic;
  Alcotest.(check (list string)) "contents" [ "x,y"; "1,2"; "3,4" ] lines

let test_csv_float_cell () =
  check_string "int-like" "2" (Csv.float_cell 2.);
  check_string "inf" "inf" (Csv.float_cell infinity)

(* ---------------------------------------------------------- Int_table --- *)

(* Random add / replace / find sequences against a Hashtbl oracle.  Keys are
   drawn from a small range (so they repeat) or shifted into the high bits
   (the [(src lsl 31) lor dst] shape of the DAG builder), and the run is
   long enough to cross several doublings. *)
let int_table_matches_hashtbl =
  qtest ~count:50 "int table = Hashtbl" seed_arb (fun seed ->
      let rng = Rng.create seed in
      let t = Int_table.create 0 and h = Hashtbl.create 16 in
      let ok = ref true in
      for v = 0 to 2000 do
        let key =
          if Rng.bool rng then Rng.int rng 300 else (Rng.int rng 40 lsl 31) lor Rng.int rng 40
        in
        (match Rng.int rng 3 with
        | 0 ->
          let fresh = not (Hashtbl.mem h key) in
          if Int_table.add t key v <> fresh then ok := false;
          if fresh then Hashtbl.replace h key v
        | 1 ->
          Int_table.replace t key v;
          Hashtbl.replace h key v
        | _ -> ());
        let expect = Option.value (Hashtbl.find_opt h key) ~default:(-7) in
        if Int_table.find t key ~default:(-7) <> expect then ok := false
      done;
      for key = 0 to 299 do
        let expect = Option.value (Hashtbl.find_opt h key) ~default:(-7) in
        if Int_table.find t key ~default:(-7) <> expect then ok := false
      done;
      !ok)

let test_int_table_negative_key () =
  let t = Int_table.create 4 in
  Alcotest.check_raises "add" (Invalid_argument "Int_table.add: negative key") (fun () ->
      ignore (Int_table.add t (-1) 0));
  check_int "find" 5 (Int_table.find t (-1) ~default:5)

(* -------------------------------------------------------------- Radix --- *)

(* Keys the float order gets wrong first: both zeros, negatives, the
   infinities, subnormals, NaN — plus heavy duplicates from a small pool
   and values across the whole exponent range. *)
let radix_specials =
  [| 0.; -0.; 1.; -1.; infinity; neg_infinity; 5e-324; -5e-324; Float.min_float /. 2.;
     -.Float.min_float; Float.max_float; -.Float.max_float; nan; 0.5; 2.; 3.5 |]

let radix_keys rng n =
  let pool = Array.init (1 + Rng.int rng 8) (fun _ -> Rng.float rng 100. -. 50.) in
  Array.init n (fun _ ->
      match Rng.int rng 4 with
      | 0 -> radix_specials.(Rng.int rng (Array.length radix_specials))
      | 1 -> pool.(Rng.int rng (Array.length pool))
      | 2 -> Rng.float rng 1e6
      | _ -> ldexp (Rng.float rng 2. -. 1.) (Rng.int rng 2100 - 1075))

(* Sizes 0 and 1, both sides of the comparison cutoff, and random ones up
   to three times it. *)
let radix_size rng cls =
  let c = Radix.comparison_cutoff in
  match cls with
  | 0 -> 0
  | 1 -> 1
  | 2 -> 2
  | 3 -> c - 1
  | 4 -> c
  | 5 -> c + 1
  | 6 -> (2 * c) + 3
  | _ -> Rng.int rng (3 * c)

let radix_matches_stable_sort =
  qtest ~count:300 "radix sort equals Array.stable_sort under Float.compare"
    QCheck.(pair (int_range 0 9) seed_arb)
    (fun (cls, seed) ->
      let rng = Rng.create seed in
      let n = radix_size rng cls in
      let src = radix_keys rng n in
      let expected = Array.init n Fun.id in
      Array.stable_sort (fun a b -> Float.compare src.(a) src.(b)) expected;
      (* One spare entry past the prefix, which the sort must not touch. *)
      let keys = Array.append src [| 42. |] and vals = Array.init (n + 1) Fun.id in
      Radix.sort keys vals ~tmp_keys:(Array.make n 0.) ~tmp_vals:(Array.make n 0) n;
      let bits x = Int64.bits_of_float x in
      let ok = ref (Float.equal keys.(n) 42. && vals.(n) = n) in
      for k = 0 to n - 1 do
        if vals.(k) <> expected.(k) || not (Int64.equal (bits keys.(k)) (bits src.(expected.(k))))
        then ok := false
      done;
      !ok)

let test_radix_short_buffers () =
  Alcotest.check_raises "short working space"
    (Invalid_argument "Radix.sort: prefix longer than an array") (fun () ->
      Radix.sort [| 2.; 1. |] [| 0; 1 |] ~tmp_keys:[| 0. |] ~tmp_vals:[| 0; 0 |] 2)

(* -------------------------------------------------------------- Table --- *)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "10"; "200" ] ] in
  let lines = String.split_on_char '\n' s in
  check_int "line count" 5 (List.length lines) (* header, sep, 2 rows, trailing *) ;
  check_bool "separator present" true (String.length (List.nth lines 1) > 0)

let test_table_ragged () =
  let s = Table.render ~header:[ "a" ] [ [ "1"; "2"; "3" ] ] in
  check_bool "ragged rows padded" true (String.length s > 0)

let test_table_cells () =
  check_string "float" "1.500" (Table.cell_f 1.5);
  check_string "nan" "-" (Table.cell_f nan);
  check_string "pct" "42%" (Table.cell_pct 0.42)

let () =
  Alcotest.run "util"
    [ ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_incl bounds" `Quick test_rng_int_incl_bounds;
          Alcotest.test_case "int rejects" `Quick test_rng_int_rejects;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "int covers" `Quick test_rng_int_covers;
          rng_shuffle_permutation;
          rng_sample_distinct ] );
      ( "staircase",
        [ Alcotest.test_case "constant" `Quick test_stair_constant;
          Alcotest.test_case "add_from" `Quick test_stair_add_from;
          Alcotest.test_case "min_from" `Quick test_stair_min_from;
          Alcotest.test_case "earliest_suffix_ge" `Quick test_stair_suffix;
          Alcotest.test_case "suffix infeasible" `Quick test_stair_suffix_infeasible;
          Alcotest.test_case "infinite capacity" `Quick test_stair_infinite_capacity;
          Alcotest.test_case "copy isolation" `Quick test_stair_copy_isolated;
          Alcotest.test_case "eps snap regression" `Quick test_stair_snap_regression;
          stair_gap_invariant;
          stair_fast_queries_match_scan;
          stair_min_from_brute;
          stair_matches_reference;
          stair_suffix_is_correct;
          stair_journal_undo_bitwise;
          stair_forget_twin ] );
      ( "fp",
        [ fp_lb_plus_sound;
          Alcotest.test_case "lb_plus cases" `Quick test_fp_lb_plus_exact;
          fp_cmp_agree;
          Alcotest.test_case "comparator edges" `Quick test_fp_cmp_edges ] );
      ( "int_table",
        [ int_table_matches_hashtbl;
          Alcotest.test_case "negative key" `Quick test_int_table_negative_key ] );
      ( "radix",
        [ radix_matches_stable_sort;
          Alcotest.test_case "short buffers rejected" `Quick test_radix_short_buffers ] );
      ( "stats",
        [ Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "stdev" `Quick test_stats_stdev;
          Alcotest.test_case "quantile" `Quick test_stats_quantile;
          Alcotest.test_case "summary" `Quick test_stats_summary ] );
      ( "csv",
        [ Alcotest.test_case "escape" `Quick test_csv_escape;
          Alcotest.test_case "row" `Quick test_csv_row;
          Alcotest.test_case "write roundtrip" `Quick test_csv_write_roundtrip;
          Alcotest.test_case "float cell" `Quick test_csv_float_cell ] );
      ( "table",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "ragged" `Quick test_table_ragged;
          Alcotest.test_case "cells" `Quick test_table_cells ] ) ]
