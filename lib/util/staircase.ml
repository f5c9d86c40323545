(* Breakpoints stored in two parallel growable arrays, sorted by time.
   Invariants: len >= 1, xs strictly increasing with gaps > eps (update times
   within eps of an existing breakpoint are snapped onto it), adjacent values
   differ by more than eps ([coalesce_from] removes the rest).  Until the
   first [forget_before], xs.(0) = 0.; afterwards the stored steps are the
   [dead] prefix (wholly before the horizon, kept until the next compaction)
   followed by the live window, and [forgotten_min] holds the minimum of the
   values compaction dropped.

   The live window starts one step before the step containing the horizon
   [h].  Every later [add_from] lands at [t >= h], and the gap invariant puts
   the first live breakpoint more than eps below [h], so no update can snap
   onto it or change its value.  [coalesce_from] compares the first touched
   step with the one before it; when that is the first live step, which no
   update changes, the full history keeps it too, so starting the scan at
   index 0 after a compaction gives the same array.  Updates therefore
   rewrite the live window exactly as they rewrite the full history.

   Queries are served by a lazily patched segment tree over the value array:
   leaf [j] holds [vs.(j)] (+infinity beyond [len]), an internal node holds
   the minimum of its children.  [add_from] only rewrites the breakpoint
   arrays from the step containing the update time onwards, so it records
   that first index and the next query re-derives just the dirty leaf suffix
   and the tree levels above it — O(touched + log len) instead of the O(len)
   a suffix-minimum array costs when the tail changes.  List schedulers
   mutate near the advancing time frontier, which makes both the coalesce
   scan and the tree patch effectively O(1) amortised per update.

   The answers are bit-identical to the linear scans ([min_from_scan],
   [earliest_suffix_ge_scan] below): the minimum of a set of non-NaN floats
   does not depend on the comparison order, and [earliest_suffix_ge] returns
   an element of [xs] selected by an index the tree descent and a
   suffix-minimum binary search derive identically (the last index [j] with
   [vs.(j) +. eps < level]). *)

(* One journal record per destructive [add_from]: the pre-mutation tail of the
   breakpoint arrays starting at the first index the update could touch.
   Structural snapshots (rather than replaying the inverse delta) are the only
   exact undo: float addition does not round-trip ((v +. x) -. x <> v in
   general) and [coalesce_from]/eps-snapping destroy structure that arithmetic
   cannot rebuild.  Entries below [j_from] are never modified by [add_from]
   ([coalesce_from] can only merge at or after the first touched index), so
   restoring the tail restores the staircase bit-for-bit. *)
type journal_entry = {
  j_from : int;
  j_xs : float array;
  j_vs : float array;
  j_len : int;
}

type mark = int

type t = {
  mutable xs : float array;
  mutable vs : float array;
  mutable len : int;
  (* [forget_before] state: [dead] stored steps lie wholly before the
     horizon; [add_from] below [horizon] raises. *)
  mutable dead : int;
  mutable horizon : float;
  mutable forgotten_min : float;
  (* segment tree: [tree] has length [2 * tsize] ([tsize] a power of two,
     [tree.(0)] unused), leaf [j] lives at [tsize + j], [tree_len] is the
     [len] the leaves currently reflect, [dirty_from] the first
     possibly-stale index ([max_int] when clean). *)
  mutable tree : float array;
  mutable tsize : int;
  mutable tree_len : int;
  mutable dirty_from : int;
  mutable journaling : bool;
  mutable journal : journal_entry list;
  mutable jdepth : int;
}

let eps = 1e-9

let create v =
  {
    xs = [| 0. |];
    vs = [| v |];
    len = 1;
    dead = 0;
    horizon = 0.;
    forgotten_min = infinity;
    tree = [| infinity; infinity |];
    tsize = 1;
    tree_len = 0;
    dirty_from = 0;
    journaling = false;
    journal = [];
    jdepth = 0;
  }

let copy s =
  {
    xs = Array.copy s.xs;
    vs = Array.copy s.vs;
    len = s.len;
    dead = s.dead;
    horizon = s.horizon;
    forgotten_min = s.forgotten_min;
    tree = Array.copy s.tree;
    tsize = s.tsize;
    tree_len = s.tree_len;
    dirty_from = s.dirty_from;
    journaling = false;
    journal = [];
    jdepth = 0;
  }

let set_journal s on =
  s.journaling <- on;
  s.journal <- [];
  s.jdepth <- 0

let mark s = s.jdepth

let ensure_capacity s n =
  let cap = Array.length s.xs in
  if n > cap then begin
    let cap' = Int.max n (2 * cap) in
    let xs' = Array.make cap' 0. and vs' = Array.make cap' 0. in
    Array.blit s.xs 0 xs' 0 s.len;
    Array.blit s.vs 0 vs' 0 s.len;
    s.xs <- xs';
    s.vs <- vs'
  end

(* Record that indices >= [i] of [vs] (and possibly [len]) changed. *)
let touch s i = if i < s.dirty_from then s.dirty_from <- i

(* Index of the step containing time [t]: largest i with xs.(i) <= t. *)
let step_index s t =
  let lo = ref 0 and hi = ref (s.len - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if s.xs.(mid) <= t then lo := mid else hi := mid - 1
  done;
  !lo

(* Times before the first stored breakpoint were forgotten. *)
let check_time fn s t =
  if t < 0. then invalid_arg (fn ^ ": negative time");
  if t < s.xs.(0) then invalid_arg (fn ^ ": time before the forgetting horizon")

let value s t =
  check_time "Staircase.value" s t;
  s.vs.(step_index s t)

let final_value s = s.vs.(s.len - 1)

(* Merge adjacent eps-equal values, scanning from the first index the caller
   modified.  The untouched prefix already satisfies the invariant (adjacent
   kept values differ by more than eps), so the historical full scan kept
   every prefix entry and reached [from_] with its write cursor at
   [from_ - 1]: starting there produces the exact same array. *)
let coalesce_from s from_ =
  let w = ref (Int.max 0 (from_ - 1)) in
  for r = !w + 1 to s.len - 1 do
    if abs_float (s.vs.(r) -. s.vs.(!w)) > eps then begin
      incr w;
      s.xs.(!w) <- s.xs.(r);
      s.vs.(!w) <- s.vs.(r)
    end
  done;
  s.len <- !w + 1

let add_from s t delta =
  if t < 0. then invalid_arg "Staircase.add_from: negative time";
  if t < s.horizon then invalid_arg "Staircase.add_from: time before the forgetting horizon";
  if not (Float.equal delta 0.) then begin
    let i = step_index s t in
    touch s i;
    if s.journaling then begin
      (* Snapshot the tail from [i]: every code path below (snap-to-i,
         snap-to-i+1, split at i+1, the delta loop, coalesce) only writes at
         index [i] or later. *)
      s.journal <-
        {
          j_from = i;
          j_xs = Array.sub s.xs i (s.len - i);
          j_vs = Array.sub s.vs i (s.len - i);
          j_len = s.len;
        }
        :: s.journal;
      s.jdepth <- s.jdepth + 1
    end;
    let start =
      (* Snap onto a breakpoint within eps instead of splitting: repeated
         just-in-time transfer times ([start -. comm]) land eps-close to
         existing breakpoints and would otherwise create sliver steps that
         inflate [len] and perturb suffix queries.  Snapping keeps the gap
         invariant (all gaps > eps), so at most one neighbour qualifies. *)
      if t -. s.xs.(i) <= eps then i
      else if i + 1 < s.len && s.xs.(i + 1) -. t <= eps then i + 1
      else begin
        (* Split step [i] at [t]. *)
        ensure_capacity s (s.len + 1);
        Array.blit s.xs (i + 1) s.xs (i + 2) (s.len - i - 1);
        Array.blit s.vs (i + 1) s.vs (i + 2) (s.len - i - 1);
        s.xs.(i + 1) <- t;
        s.vs.(i + 1) <- s.vs.(i);
        s.len <- s.len + 1;
        i + 1
      end
    in
    for j = start to s.len - 1 do
      s.vs.(j) <- s.vs.(j) +. delta
    done;
    coalesce_from s i
  end

let undo_to s m =
  if m > s.jdepth then invalid_arg "Staircase.undo_to: mark is ahead of the journal";
  while s.jdepth > m do
    match s.journal with
    | [] -> invalid_arg "Staircase.undo_to: journal underflow"
    | e :: rest ->
        ensure_capacity s e.j_len;
        Array.blit e.j_xs 0 s.xs e.j_from (Array.length e.j_xs);
        Array.blit e.j_vs 0 s.vs e.j_from (Array.length e.j_vs);
        s.len <- e.j_len;
        touch s e.j_from;
        s.journal <- rest;
        s.jdepth <- s.jdepth - 1
  done

(* Rebuilds the tree at the stored size: the smallest power of two holding
   [len] leaves. *)
let grow_tree s =
  let ts = ref 1 in
  while !ts < s.len do
    ts := 2 * !ts
  done;
  s.tsize <- !ts;
  s.tree <- Array.make (2 * !ts) infinity;
  for j = 0 to s.len - 1 do
    s.tree.(!ts + j) <- s.vs.(j)
  done;
  for k = !ts - 1 downto 1 do
    let l = s.tree.(2 * k) and r = s.tree.((2 * k) + 1) in
    s.tree.(k) <- (if l < r then l else r)
  done;
  s.tree_len <- s.len;
  s.dirty_from <- max_int

(* Patch the dirty leaf suffix and the tree levels above it.  [len] can only
   differ from [tree_len] when some index at or below the new [len] was
   touched ([coalesce_from] never drops [len] below the touched index), so
   the rewritten range [dirty_from .. max len tree_len - 1] covers every
   changed leaf; leaves at or beyond it are already +infinity. *)
let refresh_tree s =
  if s.tsize < s.len then grow_tree s
  else begin
    let hi = Int.max s.len s.tree_len - 1 in
    if s.dirty_from <= hi then begin
      let a = s.dirty_from in
      for j = a to hi do
        s.tree.(s.tsize + j) <- (if j < s.len then s.vs.(j) else infinity)
      done;
      let lo = ref ((s.tsize + a) / 2) and up = ref ((s.tsize + hi) / 2) in
      while !lo >= 1 do
        for k = !lo to !up do
          let l = s.tree.(2 * k) and r = s.tree.((2 * k) + 1) in
          s.tree.(k) <- (if l < r then l else r)
        done;
        lo := !lo / 2;
        up := !up / 2
      done;
      s.tree_len <- s.len;
      s.dirty_from <- max_int
    end
  end

let min_from s t =
  refresh_tree s;
  let i = step_index s t in
  (* Range minimum over leaves [i .. tsize - 1].  The +infinity padding past
     [len - 1] never beats a real value, and when every real value is
     +infinity that is also the correct answer — so the padded suffix query
     returns exactly [min vs.(i .. len - 1)], the same float the linear scan
     finds (minima are comparison-order independent). *)
  let m = ref infinity in
  let l = ref (s.tsize + i) and r = ref (2 * s.tsize) in
  while !l < !r do
    if !l land 1 = 1 then begin
      if s.tree.(!l) < !m then m := s.tree.(!l);
      incr l
    end;
    if !r land 1 = 1 then begin
      decr r;
      if s.tree.(!r) < !m then m := s.tree.(!r)
    end;
    l := !l / 2;
    r := !r / 2
  done;
  (* Before the first stored breakpoint, the forgotten steps count too. *)
  if t < s.xs.(0) && s.forgotten_min < !m then s.forgotten_min else !m

let earliest_suffix_ge s ~level ~from =
  if final_value s +. eps < level then infinity
  else begin
    refresh_tree s;
    (* The answer is the breakpoint following the last step whose value is
       below [level] (or [from] when no step is).  [tree.(1)] is the global
       minimum, so the guard matches the historical suffix-minimum check at
       index 0; the descent then keeps the invariant "this subtree contains
       a leaf with [vs +. eps < level]", preferring the right child, and so
       lands on the last such index.  Padding leaves are +infinity and never
       qualify, and the feasibility test above puts the found step strictly
       before the final one, so the following breakpoint exists.  Only
       stored steps take part: when the last step below [level] was dropped
       by a compaction, the answer is [from] or a stored breakpoint, at most
       [Float.max from horizon] like the true one. *)
    if s.tree.(1) +. eps >= level then from
    else begin
      let k = ref 1 in
      while !k < s.tsize do
        let r = (2 * !k) + 1 in
        k := (if s.tree.(r) +. eps < level then r else 2 * !k)
      done;
      Float.max from s.xs.(!k - s.tsize + 1)
    end
  end

(* Pre-optimisation linear-scan queries, kept as the A/B reference: the
   property tests check the fast paths against these, and the hotpath bench
   times the reference scheduler with them. *)

let min_from_scan s t =
  let i = step_index s t in
  let m = ref s.vs.(i) in
  for j = i + 1 to s.len - 1 do
    if s.vs.(j) < !m then m := s.vs.(j)
  done;
  if t < s.xs.(0) && s.forgotten_min < !m then s.forgotten_min else !m

let earliest_suffix_ge_scan s ~level ~from =
  if final_value s +. eps < level then infinity
  else begin
    let answer = ref from in
    for j = 0 to s.len - 2 do
      if s.vs.(j) +. eps < level then answer := Float.max !answer s.xs.(j + 1)
    done;
    !answer
  end

(* --- the forgetting horizon --- *)

(* Drop the dead prefix: fold its values into [forgotten_min], slide the
   live window to index 0 and rebuild the tree at the live size. *)
let compact s =
  let d = s.dead in
  let m = ref s.forgotten_min in
  for j = 0 to d - 1 do
    if s.vs.(j) < !m then m := s.vs.(j)
  done;
  s.forgotten_min <- !m;
  Array.blit s.xs d s.xs 0 (s.len - d);
  Array.blit s.vs d s.vs 0 (s.len - d);
  s.len <- s.len - d;
  s.dead <- 0;
  grow_tree s

let forget_before s h =
  if s.journaling then invalid_arg "Staircase.forget_before: the journal is on";
  if h > s.horizon then begin
    s.horizon <- h;
    let keep = step_index s h - 1 in
    if keep > s.dead then s.dead <- keep;
    (* Compacting only once the dead prefix is half the stored steps makes
       the O(len) slide amortised O(1) per step ever stored. *)
    if s.dead > 0 && 2 * s.dead >= s.len then compact s
  end

let breakpoints s =
  let rec build i acc =
    if i < s.dead then acc else build (i - 1) ((s.xs.(i), s.vs.(i)) :: acc)
  in
  build (s.len - 1) []

let length s = s.len - s.dead
