(** Stable sort of (float key, int value) pairs: an LSD radix sort on the
    order-preserving bits of the key, with a merge sort below
    {!comparison_cutoff} pairs.

    Keys are ordered as [Float.compare] orders them: [-0.] and [0.] tie,
    negatives and infinities sort where they belong, and every NaN ties
    with every other NaN below [neg_infinity].  Stability makes the result a function of the input order alone,
    so a caller whose order is total (ties broken by an earlier pass or by
    the input order) gets exactly the permutation any correct sort would
    give. *)

val comparison_cutoff : int
(** Pair counts below this take the merge sort. *)

val sort :
  float array -> int array -> tmp_keys:float array -> tmp_vals:int array -> int -> unit
(** [sort keys vals ~tmp_keys ~tmp_vals n] stably sorts the prefix
    [\[0, n)] of the parallel arrays [keys] and [vals] by key, ascending,
    in place.  [tmp_keys] and [tmp_vals] are working space of at least [n]
    entries; their contents are overwritten.  Allocates nothing on the
    minor heap.
    @raise Invalid_argument if an array is shorter than [n]. *)
