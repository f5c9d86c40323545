(* Stable LSD radix sort of (float key, int value) pairs.

   A float maps to an unsigned 64-bit image whose order is [Float.compare]'s:
   set the sign bit of a non-negative float, complement every bit of a
   negative one.  [x +. 0.] first folds [-0.] onto [0.] (and leaves every
   other non-NaN value, subnormals and infinities included, unchanged), so
   the two zeros share an image, as [Float.compare] ties them.  Every NaN
   maps to 0, below the image of [neg_infinity], as [Float.compare] puts
   NaN below everything.  The image is split into 11-bit digits, least
   significant first; a digit on which every key agrees (the sign and top
   exponent bits of a set of schedule times, typically) is skipped.

   Every array here is annotated [float array] / [int array]: an
   unannotated parameter makes the sort polymorphic, and then each key
   load boxes and each store goes through the generic array primitives. *)

let digit_bits = 11
let n_buckets = 1 lsl digit_bits
let n_digits = (64 + digit_bits - 1) / digit_bits

(* Below this many pairs the merge sort is faster: the six 2048-bucket
   histograms cost more to clear and scan than the comparisons they save.
   Measured, see DESIGN.md "Radix sorts". *)
let comparison_cutoff = 1536

let[@inline] image x =
  if Float.is_nan x then 0L
  else
    let b = Int64.bits_of_float (x +. 0.) in
    Int64.logxor b (Int64.logor (Int64.shift_right b 63) Int64.min_int)

let[@inline] digit u d =
  Int64.to_int (Int64.shift_right_logical u (d * digit_bits)) land (n_buckets - 1)

(* Stable merge sort of [0, n) for the small case: insertion-sorted runs of
   [run] pairs, then bottom-up merges ping-ponging between the two pairs of
   arrays.  The left entry wins every tie, which is what makes the merge
   stable. *)
let run = 16

let merge_sort (keys : float array) (vals : int array) (tk : float array) (tv : int array) n =
  let lo = ref 0 in
  while !lo < n do
    let hi = Int.min (!lo + run) n in
    for i = !lo + 1 to hi - 1 do
      let k = keys.(i) and v = vals.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && Float.compare k keys.(!j) < 0 do
        keys.(!j + 1) <- keys.(!j);
        vals.(!j + 1) <- vals.(!j);
        decr j
      done;
      keys.(!j + 1) <- k;
      vals.(!j + 1) <- v
    done;
    lo := hi
  done;
  let src_k = ref keys and src_v = ref vals and dst_k = ref tk and dst_v = ref tv in
  let width = ref run in
  while !width < n do
    let ak = !src_k and av = !src_v and bk = !dst_k and bv = !dst_v in
    let lo = ref 0 in
    while !lo < n do
      let mid = Int.min (!lo + !width) n in
      let hi = Int.min (mid + !width) n in
      let i = ref !lo and j = ref mid and o = ref !lo in
      while !i < mid && !j < hi do
        if Float.compare ak.(!j) ak.(!i) < 0 then begin
          bk.(!o) <- ak.(!j);
          bv.(!o) <- av.(!j);
          incr j
        end
        else begin
          bk.(!o) <- ak.(!i);
          bv.(!o) <- av.(!i);
          incr i
        end;
        incr o
      done;
      Array.blit ak !i bk !o (mid - !i);
      Array.blit av !i bv !o (mid - !i);
      let o = !o + (mid - !i) in
      Array.blit ak !j bk o (hi - !j);
      Array.blit av !j bv o (hi - !j);
      lo := hi
    done;
    src_k := bk;
    src_v := bv;
    dst_k := ak;
    dst_v := av;
    width := 2 * !width
  done;
  if !src_k != keys then begin
    Array.blit !src_k 0 keys 0 n;
    Array.blit !src_v 0 vals 0 n
  end

let radix_sort (keys : float array) (vals : int array) (tk : float array) (tv : int array) n =
  (* All digit histograms in one pass over the keys. *)
  let count = Array.make (n_digits * n_buckets) 0 in
  for i = 0 to n - 1 do
    let u = image keys.(i) in
    for d = 0 to n_digits - 1 do
      let c = (d * n_buckets) + digit u d in
      count.(c) <- count.(c) + 1
    done
  done;
  let u0 = image keys.(0) in
  let src_k = ref keys and src_v = ref vals and dst_k = ref tk and dst_v = ref tv in
  for d = 0 to n_digits - 1 do
    let base = d * n_buckets in
    (* Skip a digit every key shares: the pass would be the identity. *)
    if count.(base + digit u0 d) <> n then begin
      (* Exclusive prefix sums turn counts into bucket offsets in place. *)
      let sum = ref 0 in
      for b = base to base + n_buckets - 1 do
        let c = count.(b) in
        count.(b) <- !sum;
        sum := !sum + c
      done;
      let ak = !src_k and av = !src_v and bk = !dst_k and bv = !dst_v in
      for i = 0 to n - 1 do
        let k = ak.(i) in
        let b = base + digit (image k) d in
        let o = count.(b) in
        count.(b) <- o + 1;
        bk.(o) <- k;
        bv.(o) <- av.(i)
      done;
      src_k := bk;
      src_v := bv;
      dst_k := ak;
      dst_v := av
    end
  done;
  if !src_k != keys then begin
    Array.blit !src_k 0 keys 0 n;
    Array.blit !src_v 0 vals 0 n
  end

let sort (keys : float array) (vals : int array) ~(tmp_keys : float array) ~(tmp_vals : int array)
    n =
  if
    n < 0
    || n > Array.length keys
    || n > Array.length vals
    || n > Array.length tmp_keys
    || n > Array.length tmp_vals
  then invalid_arg "Radix.sort: prefix longer than an array";
  if n < comparison_cutoff then merge_sort keys vals tmp_keys tmp_vals n
  else radix_sort keys vals tmp_keys tmp_vals n
