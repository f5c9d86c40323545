type comm_mode = Est.comm_mode = Jit_per_edge | Jit_batched | Eager
type proc_policy = Est.proc_policy = Earliest_available | Insertion

type options = Est.options = {
  comm_mode : comm_mode;
  proc_policy : proc_policy;
}

let default_options = Est.default_options
let eps = Est.eps

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

type t = {
  g : Dag.t;
  platform : Platform.t;
  options : options;
  est_ctx : Est.ctx;  (* shares every mutable array below *)
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
  procs : int list array;  (* Platform.procs_of_pool, cached: [estimate] is hot *)
  out_sizes : float array;  (* Dag.Csr.out_sz view, cached likewise *)
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

let create ?(options = default_options) ?durations g platform =
  let n = Dag.n_tasks g in
  let k = Platform.n_pools platform in
  let durations =
    match durations with
    | Some d ->
      Est.check_durations ~fn:"Sched_state.create" g d;
      d
    | None -> Est.default_durations g
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
  let procs = Array.init k (Platform.procs_of_pool platform) in
  let free = Array.init k (fun q -> Staircase.create (Platform.pool_capacity platform q)) in
  let avail = Array.make (Platform.n_procs platform) 0. in
  (* Every pool owns at least one processor, all idle at 0. *)
  let min_avail = Array.make k 0. in
  let busy = Array.make (Platform.n_procs platform) [] in
  let aft = Array.make n 0. in
  let pool_code = Array.make n (-1) in
  {
    g;
    platform;
    options;
    est_ctx = Est.make ~options ~g ~durations ~free ~aft ~pool_code ~avail ~busy ~procs ~min_avail;
    durations;
    free;
    avail;
    min_avail;
    busy;
    aft;
    assigned = Array.make n false;
    pool_code;
    pending_parents = pending;
    sched = Schedule.create g;
    procs;
    out_sizes = Dag.Csr.out_sz g;
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

let copy t =
  let free = Array.map Staircase.copy t.free in
  let avail = Array.copy t.avail in
  let min_avail = Array.copy t.min_avail in
  let busy = Array.copy t.busy in
  let aft = Array.copy t.aft in
  let pool_code = Array.copy t.pool_code in
  {
    t with
    est_ctx =
      Est.make ~options:t.options ~g:t.g ~durations:t.durations ~free ~aft ~pool_code ~avail ~busy
        ~procs:t.procs ~min_avail;
    free;
    avail;
    min_avail;
    busy;
    aft;
    assigned = Array.copy t.assigned;
    pool_code;
    pending_parents = Array.copy t.pending_parents;
    sched =
      {
        Schedule.starts = Array.copy t.sched.Schedule.starts;
        procs = Array.copy t.sched.Schedule.procs;
        comm_starts = Array.copy t.sched.Schedule.comm_starts;
      };
    ready_arr = Array.copy t.ready_arr;
    ready_buf = Array.copy t.ready_buf;
    in_ready = Array.copy t.in_ready;
    ready_scratch = Array.make (Array.length t.ready_scratch) 0;
    planned = Array.copy t.planned;
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

type estimate = Est.estimate = {
  task : int;
  pool : int;
  est : float;
  eft : float;
  comm_batch : float;
}

let estimate t i q = if not (is_ready t i) then None else Est.estimate_ready t.est_ctx i q

(* The one place a release floor enters an estimate: [est' = max(est,
   not_before)], [eft' = est' + W^(pool)] recomputed from the durations (not
   shifted).  An estimate the floor does not bind is returned as is. *)
let lift_estimate t ~not_before e =
  if e.est >= not_before then e
  else { e with est = not_before; eft = not_before +. t.durations.(e.pool).(e.task) }

(* Lifted in place, so a probe whose floor binds nowhere allocates nothing
   beyond the estimates themselves. *)
let estimates t ~not_before i =
  if not (is_ready t i) then Array.make (Platform.n_pools t.platform) None
  else begin
    let es = Est.estimates_ready t.est_ctx i in
    let floor = not_before.(i) in
    for q = 0 to Array.length es - 1 do
      match es.(q) with
      | Some e when e.est < floor -> es.(q) <- Some (lift_estimate t ~not_before:floor e)
      | _ -> ()
    done;
    es
  end

let best_of = Est.best_of

let best_estimate t ~not_before i =
  if not (is_ready t i) then None else best_of (estimates t ~not_before i)

(* Processor of pool [q] minimising idle time before a task starting at
   [start] with duration [w] (paper: maximise avail among procs available by
   then). *)
let select_proc t q ~start ~w =
  match t.options.proc_policy with
  | Earliest_available ->
    let best = ref None in
    List.iter
      (fun p ->
        if t.avail.(p) <= start +. eps then begin
          match !best with
          | Some r when t.avail.(r) >= t.avail.(p) -> ()
          | _ -> best := Some p
        end)
      t.procs.(q);
    (match !best with
    | Some p -> p
    | None -> invalid_arg "Sched_state.commit: stale estimate (no processor available)")
  | Insertion ->
    let fits p =
      List.for_all
        (fun (b0, b1) -> b1 <= start +. eps || b0 +. eps >= start +. w)
        t.busy.(p)
    in
    (match List.find_opt fits t.procs.(q) with
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
    t.min_avail.(q) <- List.fold_left (fun acc r -> Float.min acc t.avail.(r)) infinity t.procs.(q)
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
  let pred_off = Dag.Csr.pred_off g and pred_eid = Dag.Csr.pred_eid g in
  let pred_src = Dag.Csr.pred_src g in
  let e_size = Dag.Csr.e_size g and e_comm = Dag.Csr.e_comm g in
  let deferred_frees = ref [] in
  for p = pred_off.(i) to pred_off.(i + 1) - 1 do
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
      Staircase.add_from free_q tau (-.e_size.(eid));
      deferred_frees := (t.free.(qj), tau +. e_comm.(eid), e_size.(eid)) :: !deferred_frees
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
  (* ... the source copies disappear at the transfer ends, and all input
     files are released from this pool at the task end. *)
  List.iter (fun (stair, time, amount) -> Staircase.add_from stair time amount) !deferred_frees;
  Staircase.add_from free_q eft (Dag.in_size g i);
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

  let memory_lb t i q =
    let free = t.free.(q) in
    let cross_in, c_batch, min_cross_aft = cross_summary t i q in
    let task_level = cross_in +. Dag.out_size t.g i in
    match Staircase.earliest_suffix_ge_scan free ~level:task_level ~from:0. with
    | None -> None
    | Some t_task -> (
      if Float.equal cross_in 0. then Some (t_task, c_batch)
      else begin
        match t.options.comm_mode with
        | Jit_batched -> (
          match Staircase.earliest_suffix_ge_scan free ~level:cross_in ~from:0. with
          | None -> None
          | Some t_comm -> Some (Float.max t_task (Fp.lb_plus t_comm c_batch), c_batch))
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
              match Staircase.earliest_suffix_ge_scan free ~level:acc ~from:0. with
              | None -> None
              | Some t_k -> prefixes acc (Float.max lb (Fp.lb_plus t_k e.Dag.comm)) rest)
          in
          Option.map (fun lb -> (Float.max t_task lb, c_batch)) (prefixes 0. 0. sorted)
        | Eager -> (
          match Staircase.earliest_suffix_ge_scan free ~level:cross_in ~from:0. with
          | Some t_comm when t_comm <= min_cross_aft +. eps -> Some (t_task, c_batch)
          | _ -> None)
      end)

  let estimate t i q =
    if not (is_ready t i) then None
    else begin
      match memory_lb t i q with
      | None -> None
      | Some (mem_lb, c_batch) ->
        let lb = Float.max mem_lb (precedence_est t i q) in
        let w = t.durations.(q).(i) in
        let est = resource_est t q ~lb ~w in
        Some { task = i; pool = q; est; eft = est +. w; comm_batch = c_batch }
    end

  let best_estimate t i = best_of (Array.init (Platform.n_pools t.platform) (estimate t i))
end
