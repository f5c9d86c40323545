type comm_mode = Jit_per_edge | Jit_batched | Eager
type proc_policy = Earliest_available | Insertion

type options = {
  comm_mode : comm_mode;
  proc_policy : proc_policy;
}

let default_options = { comm_mode = Jit_per_edge; proc_policy = Earliest_available }
let eps = 1e-9

type estimate = {
  task : int;
  pool : int;
  est : float;
  eft : float;
}

(* One trail record per [commit], capturing every piece of state the commit
   overwrites (plus a journal mark per pool staircase) so [uncommit] can
   restore the state bit-for-bit.  A commit only moves the availability
   minimum and the planned peak of the task's own pool, so one scalar each
   suffices.  Shared structure (the previous [busy] list) is captured by
   reference: a persistent list that [commit] replaces rather than mutates.
   The ready set needs no capture: it is derived from
   [assigned]/[pending_parents] (see below), both of which uncommit
   restores. *)
type undo = {
  u_task : int;
  u_proc : int;
  u_avail : float;
  u_busy : (float * float) list;
  u_min_avail : float;
  u_aft : float;
  u_start : float;
  u_sproc : int;
  mutable u_comms : (int * float option) list;
  u_planned : float;
  u_marks : Staircase.mark array;
}

(* The largest [min_avail] a horizon was derived from (see
   [advance_horizon]).  An all-float record is stored flat, so raising it
   allocates nothing. *)
type watermark = { mutable seen : float }

type t = {
  g : Dag.t;
  platform : Platform.t;
  options : options;
  n_pools : int;
  durations : float array array;  (* per pool, per task *)
  free : Staircase.t array;  (* per pool: the free_mem staircase *)
  avail : float array;  (* per processor: finish time of its last task *)
  min_avail : float array;  (* per pool: min of [avail] over its processors *)
  busy : (float * float) list array;
      (* per processor: sorted busy intervals.  Only maintained under the
         Insertion policy — nothing reads it under Earliest_available, and
         the sorted insert is quadratic on 10^5-task schedules. *)
  aft : float array;  (* actual finish time, per task *)
  assigned : bool array;
  pool_code : int array;  (* per task: its pool, -1 while unassigned *)
  pending_parents : int array;
  sched : Schedule.t;
  procs : int array array;  (* Platform.procs_of_pool, cached: [commit] is hot *)
  (* Read-only views of the graph, cached likewise: [probe] and [commit]
     read them on every call. *)
  pred_off : int array;
  pred_eid : int array;
  pred_src : int array;
  e_size : float array;
  e_comm : float array;
  out_sizes : float array;
  in_sizes : float array;  (* [Dag.in_size] boxes its result *)
  (* The probe's scratch, one slot per pool: the cross-edge ids of the
     predecessor walk (a row sized to the largest in-degree), its running
     aggregates, and the estimate of the last probe.  Owned by this state
     alone: [copy] allocates fresh scratch. *)
  cross : int array array;
  n_cross : int array;
  cross_in : float array;
  c_batch : float array;
  min_cross_aft : float array;
  prec : float array;
  slot_fits : bool array;
  slot_est : float array;
  slot_eft : float array;
  (* The forgetting horizon (see [advance_horizon]): whether this state may
     forget staircase history at all, the largest transfer time, and the
     availability minimum last used. *)
  forgetting : bool;
  c_max : float;
  horizon_from : watermark;
  (* Flat ready set.  A task is ready iff [not assigned && pending = 0]; the
     arrays below are a superset index over that predicate: [ready_arr]
     (sorted ascending, possibly holding stale entries) plus an unsorted
     insertion buffer, with [in_ready] flagging physical presence in either.
     Invariant: every ready task is present; [ready_stale] counts the
     present-but-not-ready entries so compaction can be amortised.  This
     replaces the sorted-list maintenance whose O(width) insert/remove per
     commit dominated large runs. *)
  mutable ready_arr : int array;
  mutable ready_len : int;
  ready_buf : int array;
  mutable ready_buf_len : int;
  in_ready : bool array;
  mutable ready_scratch : int array;
  mutable ready_stale : int;
  mutable assigned_count : int;
  planned : float array;  (* per pool, see [planned_peak] *)
  mutable trailing : bool;
  mutable trail : undo list;
  (* Committed task ids, most recent first; [commit_order] reverses it.  The
     replay engine uses it to recover the exact decision sequence of a plan. *)
  mutable commit_log : int list;
}

let make ~forgetting ?(options = default_options) ?durations g platform =
  let n = Dag.n_tasks g in
  let k = Platform.n_pools platform in
  let durations =
    match durations with
    | Some d ->
      Dag.check_durations ~fn:"Sched_state.create" g d;
      d
    | None -> Dag.default_durations g
  in
  if Array.length durations <> k then
    invalid_arg "Sched_state.create: one duration column per memory pool";
  let pending = Array.init n (Dag.Csr.in_degree g) in
  let ready_arr = Array.make (max 1 n) 0 in
  let in_ready = Array.make n false in
  let ready_len = ref 0 in
  for i = 0 to n - 1 do
    if pending.(i) = 0 then begin
      ready_arr.(!ready_len) <- i;
      incr ready_len;
      in_ready.(i) <- true
    end
  done;
  let width = max 1 (Dag.Csr.max_in_degree g) in
  {
    g;
    platform;
    options;
    n_pools = k;
    durations;
    free = Array.init k (fun q -> Staircase.create (Platform.pool_capacity platform q));
    avail = Array.make (Platform.n_procs platform) 0.;
    (* Every pool owns at least one processor, all idle at 0. *)
    min_avail = Array.make k 0.;
    busy = Array.make (Platform.n_procs platform) [];
    aft = Array.make n 0.;
    assigned = Array.make n false;
    pool_code = Array.make n (-1);
    pending_parents = pending;
    sched = Schedule.create g;
    procs = Array.init k (fun q -> Array.of_list (Platform.procs_of_pool platform q));
    pred_off = Dag.Csr.pred_off g;
    pred_eid = Dag.Csr.pred_eid g;
    pred_src = Dag.Csr.pred_src g;
    e_size = Dag.Csr.e_size g;
    e_comm = Dag.Csr.e_comm g;
    out_sizes = Dag.Csr.out_sz g;
    in_sizes = Dag.Csr.in_sz g;
    cross = Array.init k (fun _ -> Array.make width 0);
    n_cross = Array.make k 0;
    cross_in = Array.make k 0.;
    c_batch = Array.make k 0.;
    min_cross_aft = Array.make k infinity;
    prec = Array.make k 0.;
    slot_fits = Array.make k false;
    slot_est = Array.make k 0.;
    slot_eft = Array.make k 0.;
    (* Insertion can start a task before [min_avail] and Eager starts its
       transfers at producer finish times, so both keep the full history. *)
    forgetting =
      forgetting
      && (match options.proc_policy with Earliest_available -> true | Insertion -> false)
      && (match options.comm_mode with Jit_per_edge | Jit_batched -> true | Eager -> false);
    c_max = Array.fold_left Float.max 0. (Dag.Csr.e_comm g);
    horizon_from = { seen = 0. };
    ready_arr;
    ready_len = !ready_len;
    ready_buf = Array.make (max 1 n) 0;
    ready_buf_len = 0;
    in_ready;
    ready_scratch = Array.make (max 1 n) 0;
    ready_stale = 0;
    assigned_count = 0;
    planned = Array.make k 0.;
    trailing = false;
    trail = [];
    commit_log = [];
  }

let create ?options ?durations g platform = make ~forgetting:true ?options ?durations g platform

let copy t =
  let k = t.n_pools and width = Array.length t.cross.(0) in
  {
    t with
    free = Array.map Staircase.copy t.free;
    avail = Array.copy t.avail;
    min_avail = Array.copy t.min_avail;
    busy = Array.copy t.busy;
    aft = Array.copy t.aft;
    assigned = Array.copy t.assigned;
    pool_code = Array.copy t.pool_code;
    pending_parents = Array.copy t.pending_parents;
    sched =
      {
        Schedule.starts = Array.copy t.sched.Schedule.starts;
        procs = Array.copy t.sched.Schedule.procs;
        comm_starts = Array.copy t.sched.Schedule.comm_starts;
      };
    cross = Array.init k (fun _ -> Array.make width 0);
    n_cross = Array.make k 0;
    cross_in = Array.make k 0.;
    c_batch = Array.make k 0.;
    min_cross_aft = Array.make k infinity;
    prec = Array.make k 0.;
    slot_fits = Array.make k false;
    slot_est = Array.make k 0.;
    slot_eft = Array.make k 0.;
    ready_arr = Array.copy t.ready_arr;
    ready_buf = Array.copy t.ready_buf;
    in_ready = Array.copy t.in_ready;
    ready_scratch = Array.make (Array.length t.ready_scratch) 0;
    planned = Array.copy t.planned;
    horizon_from = { seen = t.horizon_from.seen };
    trailing = false;
    trail = [];
  }

let set_trail t on =
  t.trailing <- on;
  t.trail <- [];
  Array.iter (fun free -> Staircase.set_journal free on) t.free

let snapshot_schedule t =
  {
    Schedule.starts = Array.copy t.sched.Schedule.starts;
    procs = Array.copy t.sched.Schedule.procs;
    comm_starts = Array.copy t.sched.Schedule.comm_starts;
  }

let graph t = t.g
let platform t = t.platform
let schedule t = t.sched
let n_assigned t = t.assigned_count
let commit_order t = List.rev t.commit_log
let is_assigned t i = t.assigned.(i)
let is_ready t i = (not t.assigned.(i)) && t.pending_parents.(i) = 0

(* --- flat ready set maintenance --- *)

(* Record [i] as present; caller has just made it ready (or is restoring
   readiness on uncommit).  If it is still physically present from an
   earlier membership it was counted stale — it no longer is. *)
let ready_add t i =
  if t.in_ready.(i) then t.ready_stale <- t.ready_stale - 1
  else begin
    t.ready_buf.(t.ready_buf_len) <- i;
    t.ready_buf_len <- t.ready_buf_len + 1;
    t.in_ready.(i) <- true
  end

(* [i] just stopped being ready (committed, or demoted by an uncommit of a
   parent).  Removal is purely logical — the entry stays until compaction. *)
let ready_drop t i = if t.in_ready.(i) then t.ready_stale <- t.ready_stale + 1

(* Fold the insertion buffer into the sorted array and drop every stale
   entry.  The buffer is insertion-sorted (it holds at most the handful of
   tasks that became ready since the last compaction); the merge is linear
   and reuses two preallocated arrays.  Cost is amortised O(1) per commit. *)
let compact_ready t =
  for idx = 1 to t.ready_buf_len - 1 do
    let v = t.ready_buf.(idx) in
    let j = ref (idx - 1) in
    while !j >= 0 && t.ready_buf.(!j) > v do
      t.ready_buf.(!j + 1) <- t.ready_buf.(!j);
      decr j
    done;
    t.ready_buf.(!j + 1) <- v
  done;
  let dst = t.ready_scratch in
  let d = ref 0 in
  let keep i =
    if is_ready t i then begin
      dst.(!d) <- i;
      incr d
    end
    else t.in_ready.(i) <- false
  in
  let a = ref 0 and b = ref 0 in
  (* [ready_arr] and [ready_buf] are disjoint (the [in_ready] guard), so a
     plain two-way merge keeps ascending order. *)
  while !a < t.ready_len && !b < t.ready_buf_len do
    if t.ready_arr.(!a) < t.ready_buf.(!b) then begin
      keep t.ready_arr.(!a);
      incr a
    end
    else begin
      keep t.ready_buf.(!b);
      incr b
    end
  done;
  while !a < t.ready_len do
    keep t.ready_arr.(!a);
    incr a
  done;
  while !b < t.ready_buf_len do
    keep t.ready_buf.(!b);
    incr b
  done;
  t.ready_scratch <- t.ready_arr;
  t.ready_arr <- dst;
  t.ready_len <- !d;
  t.ready_buf_len <- 0;
  t.ready_stale <- 0

let maybe_compact t =
  if t.ready_buf_len > 0 || t.ready_stale * 2 > t.ready_len then compact_ready t

let iter_ready t f =
  maybe_compact t;
  for k = 0 to t.ready_len - 1 do
    let i = t.ready_arr.(k) in
    if is_ready t i then f i
  done

let ready_tasks t =
  maybe_compact t;
  let acc = ref [] in
  for k = t.ready_len - 1 downto 0 do
    let i = t.ready_arr.(k) in
    if is_ready t i then acc := i :: !acc
  done;
  !acc

let finish_time t i = t.aft.(i)
let duration t i q = t.durations.(q).(i)
let free_mem_final t q = Staircase.final_value t.free.(q)
let planned_peak t q = t.planned.(q)

(* --- the estimate (§5.1) --- *)

(* Bit-identity contract: every float operation below (operator choice,
   operand order, accumulation order) mirrors the historical list-walking
   code kept verbatim as [Reference], so the two agree to the last bit
   (pinned by golden digests). *)

(* Classic HEFT insertion (the ablation policy): the earliest start on some
   processor of pool [q], given a lower bound [lb] and the task duration
   [w]. *)
let insertion_est t q ~lb ~w =
  let earliest_on p =
    (* Scan the sorted busy intervals for the first gap of length [w]
       starting at or after [lb]. *)
    let rec scan start = function
      | [] -> start
      | (b0, b1) :: rest -> if start +. w <= b0 +. eps then start else scan (Float.max start b1) rest
    in
    scan lb t.busy.(p)
  in
  Array.fold_left (fun acc p -> Float.min acc (earliest_on p)) infinity t.procs.(q)

(* In-place stable insertion sort of [cross.(0..k-1)] by decreasing transfer
   time.  Shifting only while strictly smaller keeps equal-comm edges in
   their original (predecessor) order — the permutation OCaml's stable
   [List.sort] produces in [Reference], so the prefix sums below accumulate
   in the identical order. *)
let sort_desc_comm t cross k =
  for idx = 1 to k - 1 do
    let e = cross.(idx) in
    let ce = t.e_comm.(e) in
    let j = ref (idx - 1) in
    while !j >= 0 && t.e_comm.(cross.(!j)) < ce do
      cross.(!j + 1) <- cross.(!j);
      decr j
    done;
    cross.(!j + 1) <- e
  done

(* Memory lower bound on the start time on pool [q] from the aggregates the
   walk left in [q]'s scratch slot, or [infinity] when the task cannot fit
   (the paper's EFT = +infinity case; a feasible bound is always a finite
   staircase time, and the staircase queries answer [infinity] exactly when
   the level does not fit).  The per-edge sort permutes [q]'s cross-edge
   ids. *)
let memory_lb t i q =
  let free = t.free.(q) in
  let cross_in = t.cross_in.(q) in
  let t_task = Staircase.earliest_suffix_ge free ~level:(cross_in +. t.out_sizes.(i)) ~from:0. in
  if Float.equal t_task infinity || Float.equal cross_in 0. then t_task
  else begin
    match t.options.comm_mode with
    | Jit_batched ->
      (* The paper's comm_mem_EST: the whole incoming batch must fit over a
         window of the maximal transfer time. *)
      let t_comm = Staircase.earliest_suffix_ge free ~level:cross_in ~from:0. in
      if Float.equal t_comm infinity then infinity
      else Float.max t_task (Fp.lb_plus t_comm t.c_batch.(q))
    | Jit_per_edge ->
      (* Exact accounting of just-in-time transfers: the file of the cross
         edge with the k-th largest transfer time is resident from
         [start - C_k] on, so at that instant only the k largest-C files
         are present.  For each prefix (sorted by decreasing C) the prefix
         mass must fit from [start - C_k] on.  A prefix that does not fit
         sets the bound to [infinity] and ends the scan. *)
      let cross = t.cross.(q) and k = t.n_cross.(q) in
      sort_desc_comm t cross k;
      let acc = ref 0. and lb = ref 0. in
      let idx = ref 0 in
      while !idx < k do
        let e = cross.(!idx) in
        acc := !acc +. t.e_size.(e);
        let t_k = Staircase.earliest_suffix_ge free ~level:!acc ~from:0. in
        if Float.equal t_k infinity then begin
          lb := infinity;
          idx := k
        end
        else begin
          (* Fp.lb_plus: the transfer later placed at [est -. C] must not
             land below the verified window start in float arithmetic. *)
          lb := Float.max !lb (Fp.lb_plus t_k t.e_comm.(e));
          incr idx
        end
      done;
      Float.max t_task !lb
    | Eager ->
      (* Transfers fire at producer completion: the destination must be able
         to hold every incoming file from the earliest producer finish on. *)
      let t_comm = Staircase.earliest_suffix_ge free ~level:cross_in ~from:0. in
      if (not (Float.equal t_comm infinity)) && t_comm <= t.min_cross_aft.(q) +. eps then t_task
      else infinity
  end

(* Pool [q]'s estimate into its slots: [fits], and when it fits [est] and
   [eft = est + W^(q)]. *)
let estimate_on t i q =
  let mem_lb = memory_lb t i q in
  if Float.equal mem_lb infinity then t.slot_fits.(q) <- false
  else begin
    let lb = Float.max mem_lb t.prec.(q) in
    let w = t.durations.(q).(i) in
    let est =
      match t.options.proc_policy with
      | Earliest_available -> Float.max lb t.min_avail.(q)
      | Insertion -> insertion_est t q ~lb ~w
    in
    t.slot_fits.(q) <- true;
    t.slot_est.(q) <- est;
    t.slot_eft.(q) <- est +. w
  end

(* One cache-linear CSR walk of the predecessors for every pool,
   allocation-free: a parent on pool [q] feeds [q]'s precedence EST, and is a
   cross parent of every other pool — its edge id lands in that pool's
   scratch row and the aggregates (total cross size, max transfer time,
   earliest cross producer finish, precedence EST) accumulate in that pool's
   slot.  Each pool sees the predecessors in row order, so a pool's result
   does not depend on the others.  Caller guarantees [i] is ready. *)
let walk t i =
  let hi = t.n_pools - 1 in
  for q = 0 to hi do
    t.n_cross.(q) <- 0;
    t.cross_in.(q) <- 0.;
    t.c_batch.(q) <- 0.;
    t.min_cross_aft.(q) <- infinity;
    t.prec.(q) <- 0.
  done;
  for p = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
    let j = t.pred_src.(p) in
    let mj = t.pool_code.(j) in
    if mj < 0 then invalid_arg "Sched_state: parent not assigned";
    let e = t.pred_eid.(p) in
    let aft_j = t.aft.(j) in
    for q = 0 to hi do
      if q = mj then begin
        if aft_j > t.prec.(q) then t.prec.(q) <- aft_j
      end
      else begin
        let k = t.n_cross.(q) in
        t.cross.(q).(k) <- e;
        t.n_cross.(q) <- k + 1;
        t.cross_in.(q) <- t.cross_in.(q) +. t.e_size.(e);
        if t.e_comm.(e) > t.c_batch.(q) then t.c_batch.(q) <- t.e_comm.(e);
        if aft_j < t.min_cross_aft.(q) then t.min_cross_aft.(q) <- aft_j;
        let arrival = aft_j +. t.e_comm.(e) in
        if arrival > t.prec.(q) then t.prec.(q) <- arrival
      end
    done
  done

(* Every pool from one walk.  A pool that fits is lifted to the release
   floor in place ([est' = max(est, floor)], [eft'] recomputed from the
   duration, not shifted) and then compared with the incumbent pool:
   minimum EFT, ties to the earlier EST, then to the incumbent — the lower
   pool, as the pools are met in order. *)
let probe t ~not_before i =
  if not (is_ready t i) then -1
  else begin
    walk t i;
    let floor = not_before.(i) in
    let best = ref (-1) in
    for q = 0 to t.n_pools - 1 do
      estimate_on t i q;
      if t.slot_fits.(q) then begin
        if t.slot_est.(q) < floor then begin
          t.slot_est.(q) <- floor;
          t.slot_eft.(q) <- floor +. t.durations.(q).(i)
        end;
        let b = !best in
        if
          b < 0
          || t.slot_eft.(q) +. eps < t.slot_eft.(b)
          || ((not (t.slot_eft.(b) +. eps < t.slot_eft.(q)))
             && t.slot_est.(q) +. eps < t.slot_est.(b))
        then best := q
      end
    done;
    !best
  end

let probe_fits t q = t.slot_fits.(q)
let probe_eft t q = t.slot_eft.(q)
let probe_estimate t i q = { task = i; pool = q; est = t.slot_est.(q); eft = t.slot_eft.(q) }

(* Processor of pool [q] minimising idle time before a task starting at
   [start] with duration [w] (paper: maximise avail among procs available by
   then). *)
let select_proc t q ~start ~w =
  let procs = t.procs.(q) in
  match t.options.proc_policy with
  | Earliest_available ->
    (* Among the processors available by [start] (eps slack), the first with
       the latest availability. *)
    let best = ref (-1) in
    for k = 0 to Array.length procs - 1 do
      let p = procs.(k) in
      if t.avail.(p) <= start +. eps && (!best < 0 || not (t.avail.(!best) >= t.avail.(p))) then
        best := p
    done;
    if !best < 0 then invalid_arg "Sched_state.commit: stale estimate (no processor available)";
    !best
  | Insertion ->
    let fits p =
      List.for_all
        (fun (b0, b1) -> b1 <= start +. eps || b0 +. eps >= start +. w)
        t.busy.(p)
    in
    (match List.find_opt fits (Array.to_list procs) with
    | Some p -> p
    | None -> invalid_arg "Sched_state.commit: stale estimate (no insertion slot)")

let insert_interval t q p ~start ~finish =
  (match t.options.proc_policy with
  | Earliest_available ->
    (* Nothing reads [busy] under this policy; the sorted insert below is
       the one per-commit cost that is linear in the schedule length. *)
    ignore start
  | Insertion ->
    let rec ins = function
      | [] -> [ (start, finish) ]
      | (b0, b1) :: rest as l -> if start <= b0 then (start, finish) :: l else (b0, b1) :: ins rest
    in
    t.busy.(p) <- ins t.busy.(p));
  if finish > t.avail.(p) then begin
    t.avail.(p) <- finish;
    (* Refresh the cached minimum of [p]'s pool with the same fold the
       pre-optimisation resource_EST ran on every estimate, so the cached
       value is bit-identical to what that fold would return now.  No other
       pool's processors changed. *)
    let procs = t.procs.(q) in
    let m = ref infinity in
    for k = 0 to Array.length procs - 1 do
      m := Float.min !m t.avail.(procs.(k))
    done;
    t.min_avail.(q) <- !m
  end

(* The forgetting horizon.  Let M be the minimum over pools of [min_avail].
   Under [Earliest_available] every estimate starts at or after its pool's
   [min_avail] >= M, and [select_proc] accepts a start [s] only when some
   processor's availability (>= M) is at most [s +. eps]; so every later
   commit starts at [s >= F = M -. 2 eps]: [s +. eps] rounds to M or above
   only if [s + eps >= M - u/2], [u] the float spacing just below M, which
   gives [s >= M - 2 eps] when [u <= 2 eps] and [s >= M] otherwise.
   The horizon [h] is the largest float with [Fp.lb_plus h c_max <= F].
   Every time a later commit passes to [Staircase.add_from] is then at least
   [h]: a just-in-time transfer starts at [s -. C >= F -. c_max >= h]
   (rounding is monotone and [lb_plus h c_max -. c_max >= h]); the source
   copy is released at [(s -. C) +. C >= s -. C]; the task holds its outputs
   from [s] and releases its inputs at [s +. W >= s].

   Why forgetting cannot change a schedule.  A staircase answer
   ([earliest_suffix_ge]) differs from the full-history one only when the
   last step below the level was forgotten, and then both answers are at
   most [h].  Such an answer [t_k] enters an estimate only through
   [t_task] or [Fp.lb_plus t_k C] with [C <= c_max]; both are at most
   [Fp.lb_plus h c_max <= F <= M <= min_avail q] ([lb_plus] is monotone in
   both arguments), and [resource_EST]'s [Float.max _ min_avail.(q)] absorbs
   every term at most [min_avail q]: [est] and [eft] come out bit-identical.
   The planned peaks read [min_from _ 0.] and the final values, which stay
   exact.  Insertion and Eager compare or place times below [min_avail]
   ([t_comm <= min_cross_aft + eps]), so [forgetting] is off for them; it is
   off while trailing too (the journal addresses array positions). *)
let advance_horizon t =
  let m = ref infinity in
  for q = 0 to Array.length t.min_avail - 1 do
    if t.min_avail.(q) < !m then m := t.min_avail.(q)
  done;
  if !m > t.horizon_from.seen then begin
    t.horizon_from.seen <- !m;
    let f = !m -. (2. *. eps) and c = t.c_max in
    let h = ref (f -. c) in
    while Fp.lb_plus !h c > f do
      h := Float.pred !h
    done;
    while Fp.lb_plus (Float.succ !h) c <= f do
      h := Float.succ !h
    done;
    for q = 0 to Array.length t.free - 1 do
      Staircase.forget_before t.free.(q) !h
    done
  end

let commit t e =
  let i = e.task and q = e.pool in
  if t.assigned.(i) then invalid_arg "Sched_state.commit: task already assigned";
  if not (is_ready t i) then invalid_arg "Sched_state.commit: task not ready";
  let g = t.g in
  let w = t.durations.(q).(i) in
  let start = e.est and eft = e.eft in
  let free_q = t.free.(q) in
  let proc = select_proc t q ~start ~w in
  (* Capture the about-to-be-overwritten state before any mutation.  The
     record only reads; it cannot perturb the commit, so a trailing commit is
     bit-identical to a plain one. *)
  let undo =
    if not t.trailing then None
    else
      Some
        {
          u_task = i;
          u_proc = proc;
          u_avail = t.avail.(proc);
          u_busy = t.busy.(proc);
          u_min_avail = t.min_avail.(q);
          u_aft = t.aft.(i);
          u_start = t.sched.Schedule.starts.(i);
          u_sproc = t.sched.Schedule.procs.(i);
          u_comms = [];
          u_planned = t.planned.(q);
          u_marks = Array.map Staircase.mark t.free;
        }
  in
  insert_interval t q proc ~start ~finish:eft;
  t.sched.Schedule.starts.(i) <- start;
  t.sched.Schedule.procs.(i) <- proc;
  (* Incoming cross-pool transfers, walked over the packed CSR predecessor
     row (ascending eid, i.e. insertion order).  In both just-in-time
     modes each transfer starts at [start - C(j,i)] so that it completes
     exactly at the task start; the recorded memory profile is therefore
     exact: the file appears in the destination at the transfer start and
     leaves the source at the transfer end (= the task start). *)
  let pred_off = t.pred_off and pred_eid = t.pred_eid and pred_src = t.pred_src in
  let e_size = t.e_size and e_comm = t.e_comm in
  let row_lo = pred_off.(i) and row_hi = pred_off.(i + 1) - 1 in
  for p = row_lo to row_hi do
    let j = pred_src.(p) in
    let qj = t.pool_code.(j) in
    if qj < 0 then invalid_arg "Sched_state.commit: parent not assigned";
    if qj <> q then begin
      let eid = pred_eid.(p) in
      let tau =
        match t.options.comm_mode with
        | Jit_per_edge | Jit_batched -> start -. e_comm.(eid)
        | Eager -> t.aft.(j)
      in
      (match undo with
      | Some u -> u.u_comms <- (eid, t.sched.Schedule.comm_starts.(eid)) :: u.u_comms
      | None -> ());
      t.sched.Schedule.comm_starts.(eid) <- Some tau;
      Staircase.add_from free_q tau (-.e_size.(eid))
    end
  done;
  (* Output files are held from the task start... *)
  Staircase.add_from free_q start (-.t.out_sizes.(i));
  (* All allocations of this decision are now recorded but none of its
     releases: the worst usage of the chosen pool at this instant is the
     planner's own accounting of what the heuristic needs — the quantity the
     paper normalises the memory axis by (and the one for which "MemHEFT
     with HEFT's bounds replays HEFT" holds exactly). *)
  let cap = Platform.pool_capacity t.platform q in
  if cap < infinity then begin
    let used = cap -. Staircase.min_from free_q 0. in
    if used > t.planned.(q) then t.planned.(q) <- used
  end;
  (* ... the source copies disappear at the transfer ends (a second walk of
     the row, in reverse: the order these releases have always been applied
     in, which float sums depend on), and all input files are released from
     this pool at the task end. *)
  for p = row_hi downto row_lo do
    let qj = t.pool_code.(pred_src.(p)) in
    if qj <> q then begin
      let eid = pred_eid.(p) in
      let tau =
        match t.options.comm_mode with
        | Jit_per_edge | Jit_batched -> start -. e_comm.(eid)
        | Eager -> t.aft.(pred_src.(p))
      in
      Staircase.add_from t.free.(qj) (tau +. e_comm.(eid)) e_size.(eid)
    end
  done;
  Staircase.add_from free_q eft t.in_sizes.(i);
  t.aft.(i) <- eft;
  t.assigned.(i) <- true;
  t.pool_code.(i) <- q;
  t.assigned_count <- t.assigned_count + 1;
  ready_drop t i;
  let off = Dag.Csr.succ_off g and dst = Dag.Csr.succ_dst g in
  for p = off.(i) to off.(i + 1) - 1 do
    let c = dst.(p) in
    t.pending_parents.(c) <- t.pending_parents.(c) - 1;
    if t.pending_parents.(c) = 0 then ready_add t c
  done;
  t.commit_log <- i :: t.commit_log;
  if t.forgetting && not t.trailing then advance_horizon t;
  match undo with Some u -> t.trail <- u :: t.trail | None -> ()

let uncommit t =
  match t.trail with
  | [] -> invalid_arg "Sched_state.uncommit: empty trail (enable set_trail and commit first)"
  | u :: rest ->
    t.trail <- rest;
    let i = u.u_task in
    let q = t.pool_code.(i) in
    Array.iteri (fun r free -> Staircase.undo_to free u.u_marks.(r)) t.free;
    t.busy.(u.u_proc) <- u.u_busy;
    t.avail.(u.u_proc) <- u.u_avail;
    t.min_avail.(q) <- u.u_min_avail;
    t.sched.Schedule.starts.(i) <- u.u_start;
    t.sched.Schedule.procs.(i) <- u.u_sproc;
    List.iter (fun (eid, prev) -> t.sched.Schedule.comm_starts.(eid) <- prev) u.u_comms;
    t.aft.(i) <- u.u_aft;
    t.assigned.(i) <- false;
    t.pool_code.(i) <- -1;
    t.assigned_count <- t.assigned_count - 1;
    t.planned.(q) <- u.u_planned;
    let off = Dag.Csr.succ_off t.g and dst = Dag.Csr.succ_dst t.g in
    for p = off.(i) to off.(i + 1) - 1 do
      let c = dst.(p) in
      if t.pending_parents.(c) = 0 then ready_drop t c;
      t.pending_parents.(c) <- t.pending_parents.(c) + 1
    done;
    (match t.commit_log with _ :: log -> t.commit_log <- log | [] -> ());
    ready_add t i

(* Pre-optimisation reference machinery, kept verbatim as a test and fuzz
   oracle (the A/B bit-identity tests and the fuzzer's reference runners):
   three traversals of the predecessor list per estimate and O(breakpoints)
   staircase scans instead of the suffix-minimum binary search. *)
module Reference = struct
  let create ?options g platform = make ~forgetting:false ?options g platform

  let ready_tasks t =
    let acc = ref [] in
    for i = Dag.n_tasks t.g - 1 downto 0 do
      if is_ready t i then acc := i :: !acc
    done;
    !acc

  (* Verbatim pre-optimisation resource_EST: rebuilds the processor list and
     refolds the availability minimum on every call. *)
  let resource_est t q ~lb ~w =
    match t.options.proc_policy with
    | Earliest_available ->
      let procs = Platform.procs_of_pool t.platform q in
      let min_avail = List.fold_left (fun acc p -> Float.min acc t.avail.(p)) infinity procs in
      Float.max lb min_avail
    | Insertion ->
      let earliest_on p =
        let rec scan start = function
          | [] -> start
          | (b0, b1) :: rest ->
            if start +. w <= b0 +. eps then start else scan (Float.max start b1) rest
        in
        scan lb t.busy.(p)
      in
      List.fold_left
        (fun acc p -> Float.min acc (earliest_on p))
        infinity
        (Platform.procs_of_pool t.platform q)

  (* Incoming edges of [i] as records, in eid order: the list the reference
     folds walk. *)
  let pred t i =
    let off = Dag.Csr.pred_off t.g and eid = Dag.Csr.pred_eid t.g in
    List.init (off.(i + 1) - off.(i)) (fun p -> Dag.edge t.g eid.(off.(i) + p))

  let cross_edges t i q =
    List.filter
      (fun (e : Dag.edge) ->
        let qj = t.pool_code.(e.Dag.src) in
        qj >= 0 && qj <> q)
      (pred t i)

  let cross_summary t i q =
    List.fold_left
      (fun (size, cmax, min_aft) (e : Dag.edge) ->
        (size +. e.Dag.size, Float.max cmax e.Dag.comm, Float.min min_aft t.aft.(e.Dag.src)))
      (0., 0., infinity) (cross_edges t i q)

  let precedence_est t i q =
    List.fold_left
      (fun acc (e : Dag.edge) ->
        let j = e.Dag.src in
        let qj = t.pool_code.(j) in
        let arrival =
          if qj < 0 then invalid_arg "Sched_state: parent not assigned"
          else if qj = q then t.aft.(j)
          else t.aft.(j) +. e.Dag.comm
        in
        Float.max acc arrival)
      0. (pred t i)

  (* The scan's answer, [None] for "does not fit". *)
  let suffix_ge free ~level =
    let x = Staircase.earliest_suffix_ge_scan free ~level ~from:0. in
    if Float.equal x infinity then None else Some x

  let memory_lb t i q =
    let free = t.free.(q) in
    let cross_in, c_batch, min_cross_aft = cross_summary t i q in
    let task_level = cross_in +. Dag.out_size t.g i in
    match suffix_ge free ~level:task_level with
    | None -> None
    | Some t_task -> (
      if Float.equal cross_in 0. then Some t_task
      else begin
        match t.options.comm_mode with
        | Jit_batched -> (
          match suffix_ge free ~level:cross_in with
          | None -> None
          | Some t_comm -> Some (Float.max t_task (Fp.lb_plus t_comm c_batch)))
        | Jit_per_edge ->
          let sorted =
            List.sort
              (fun (a : Dag.edge) (b : Dag.edge) -> Float.compare b.Dag.comm a.Dag.comm)
              (cross_edges t i q)
          in
          let rec prefixes acc lb = function
            | [] -> Some lb
            | (e : Dag.edge) :: rest -> (
              let acc = acc +. e.Dag.size in
              match suffix_ge free ~level:acc with
              | None -> None
              | Some t_k -> prefixes acc (Float.max lb (Fp.lb_plus t_k e.Dag.comm)) rest)
          in
          Option.map (Float.max t_task) (prefixes 0. 0. sorted)
        | Eager -> (
          match suffix_ge free ~level:cross_in with
          | Some t_comm when t_comm <= min_cross_aft +. eps -> Some t_task
          | _ -> None)
      end)

  let estimate t i q =
    if not (is_ready t i) then None
    else begin
      match memory_lb t i q with
      | None -> None
      | Some mem_lb ->
        let lb = Float.max mem_lb (precedence_est t i q) in
        let w = t.durations.(q).(i) in
        let est = resource_est t q ~lb ~w in
        Some { task = i; pool = q; est; eft = est +. w }
    end

  (* Minimum EFT; ties go to the earlier EST, then to the lower pool. *)
  let better_estimate a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some ea, Some eb ->
      if eb.eft +. eps < ea.eft then b
      else if ea.eft +. eps < eb.eft then a
      else if eb.est +. eps < ea.est then b
      else a

  let best_estimate t i =
    Array.fold_left better_estimate None (Array.init (Platform.n_pools t.platform) (estimate t i))
end
