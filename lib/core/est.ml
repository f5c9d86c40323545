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
  comm_batch : float;
}

let default_durations g = [| Dag.Csr.w_blue g; Dag.Csr.w_red g |]

(* The Dag builder's rules for processing times, applied to caller-supplied
   columns: a NaN would silently lose every EFT comparison it enters. *)
let check_durations ~fn g durations =
  let n = Dag.n_tasks g in
  if Array.length durations = 0 then invalid_arg (fn ^ ": at least one duration column");
  Array.iter
    (fun col ->
      if Array.length col <> n then invalid_arg (fn ^ ": one duration per task");
      Array.iter
        (fun w ->
          Fp.check_finite ~what:(fn ^ ": duration") w;
          if w < 0. then invalid_arg (fn ^ ": negative duration"))
        col)
    durations

(* The evaluation context: flat read-only views of the graph plus the pieces
   of scheduling state the EST formulas read.  Every non-scratch array is
   SHARED with the owning [Sched_state.t] (which mutates [aft]/[pool_code]/
   [avail]/[busy]/[min_avail] and the staircases on commit).  A context must
   therefore never be shared across domains — [Sched_state.copy] builds a
   fresh one around the copied arrays. *)
type ctx = {
  options : options;
  n_pools : int;
  (* graph views (read-only, from Dag.Csr) *)
  pred_off : int array;
  pred_eid : int array;
  pred_src : int array;
  e_size : float array;
  e_comm : float array;
  w : float array array;  (* w.(pool).(task) *)
  out_sz : float array;
  (* scheduling state, shared with the owning Sched_state.t *)
  free : Staircase.t array;
  aft : float array;
  pool_code : int array;  (* -1 = unassigned, else the task's pool *)
  avail : float array;
  busy : (float * float) list array;
  procs : int list array;
  min_avail : float array;
  (* scratch of the predecessor walk, one slot per pool: the cross-edge ids
     (sized max in-degree) and the running aggregates *)
  cross : int array array;
  n_cross : int array;
  cross_in : float array;
  c_batch : float array;
  min_cross_aft : float array;
  prec : float array;
}

let make ~options ~g ~durations ~free ~aft ~pool_code ~avail ~busy ~procs ~min_avail =
  let k = Array.length free in
  let scratch = max 1 (Dag.Csr.max_in_degree g) in
  {
    options;
    n_pools = k;
    pred_off = Dag.Csr.pred_off g;
    pred_eid = Dag.Csr.pred_eid g;
    pred_src = Dag.Csr.pred_src g;
    e_size = Dag.Csr.e_size g;
    e_comm = Dag.Csr.e_comm g;
    w = durations;
    out_sz = Dag.Csr.out_sz g;
    free;
    aft;
    pool_code;
    avail;
    busy;
    procs;
    min_avail;
    cross = Array.init k (fun _ -> Array.make scratch 0);
    n_cross = Array.make k 0;
    cross_in = Array.make k 0.;
    c_batch = Array.make k 0.;
    min_cross_aft = Array.make k infinity;
    prec = Array.make k 0.;
  }

(* Earliest start on some processor of pool [q], given a lower bound [lb]
   and the task duration [w]. *)
let resource_est c q ~lb ~w =
  match c.options.proc_policy with
  | Earliest_available -> Float.max lb c.min_avail.(q)
  | Insertion ->
    let earliest_on p =
      (* Scan the sorted busy intervals for the first gap of length [w]
         starting at or after [lb]. *)
      let rec scan start = function
        | [] -> start
        | (b0, b1) :: rest ->
          if start +. w <= b0 +. eps then start else scan (Float.max start b1) rest
      in
      scan lb c.busy.(p)
    in
    List.fold_left (fun acc p -> Float.min acc (earliest_on p)) infinity c.procs.(q)

(* In-place stable insertion sort of [cross.(0..k-1)] by decreasing transfer
   time.  Shifting only while strictly smaller keeps equal-comm edges in
   their original (predecessor) order — the permutation OCaml's stable
   [List.sort] produced here before the flat rewrite, so the prefix sums
   below accumulate in the identical order. *)
let sort_desc_comm c cross k =
  for idx = 1 to k - 1 do
    let e = cross.(idx) in
    let ce = c.e_comm.(e) in
    let j = ref (idx - 1) in
    while !j >= 0 && c.e_comm.(cross.(!j)) < ce do
      cross.(!j + 1) <- cross.(!j);
      decr j
    done;
    cross.(!j + 1) <- e
  done

(* Memory lower bound on the start time on pool [q] from the aggregates the
   walk left in [q]'s scratch slot, or [infinity] when the task cannot fit
   (the paper's EFT = +infinity case; a feasible bound is always a finite
   staircase time).  The per-edge sort permutes [q]'s cross-edge ids. *)
let memory_lb c i q =
  let free = c.free.(q) in
  let cross_in = c.cross_in.(q) in
  let task_level = cross_in +. c.out_sz.(i) in
  match Staircase.earliest_suffix_ge free ~level:task_level ~from:0. with
  | None -> infinity
  | Some t_task -> (
    if Float.equal cross_in 0. then t_task
    else begin
      match c.options.comm_mode with
      | Jit_batched -> (
        (* The paper's comm_mem_EST: the whole incoming batch must fit over a
           window of the maximal transfer time. *)
        match Staircase.earliest_suffix_ge free ~level:cross_in ~from:0. with
        | None -> infinity
        | Some t_comm -> Float.max t_task (Fp.lb_plus t_comm c.c_batch.(q)))
      | Jit_per_edge ->
        (* Exact accounting of just-in-time transfers: the file of the cross
           edge with the k-th largest transfer time is resident from
           [start - C_k] on, so at that instant only the k largest-C files
           are present.  For each prefix (sorted by decreasing C) the prefix
           mass must fit from [start - C_k] on. *)
        let cross = c.cross.(q) and k = c.n_cross.(q) in
        sort_desc_comm c cross k;
        let acc = ref 0. and lb = ref 0. in
        let ok = ref true and idx = ref 0 in
        while !ok && !idx < k do
          let e = cross.(!idx) in
          acc := !acc +. c.e_size.(e);
          (match Staircase.earliest_suffix_ge free ~level:!acc ~from:0. with
          | None -> ok := false
          | Some t_k ->
            (* Fp.lb_plus: the transfer later placed at [est -. C] must not
               land below the verified window start in float arithmetic. *)
            lb := Float.max !lb (Fp.lb_plus t_k c.e_comm.(e)));
          incr idx
        done;
        if !ok then Float.max t_task !lb else infinity
      | Eager -> (
        (* Transfers fire at producer completion: the destination must be able
           to hold every incoming file from the earliest producer finish on. *)
        match Staircase.earliest_suffix_ge free ~level:cross_in ~from:0. with
        | Some t_comm when t_comm <= c.min_cross_aft.(q) +. eps -> t_task
        | _ -> infinity)
    end)

let finish c i q =
  let mem_lb = memory_lb c i q in
  if Float.equal mem_lb infinity then None
  else begin
    let lb = Float.max mem_lb c.prec.(q) in
    let w = c.w.(q).(i) in
    let est = resource_est c q ~lb ~w in
    Some { task = i; pool = q; est; eft = est +. w; comm_batch = c.c_batch.(q) }
  end

(* One cache-linear CSR walk of the predecessors for pools [lo..hi],
   allocation-free: a parent on pool [q] feeds [q]'s precedence EST, and is a
   cross parent of every other pool — its edge id lands in that pool's
   scratch row and the aggregates (total cross size, max transfer time,
   earliest cross producer finish, precedence EST) accumulate in that pool's
   slot.  Each pool sees the predecessors in row order, so the result does
   not depend on which other pools share the walk.  Caller guarantees [i] is
   ready. *)
let walk c i lo hi =
  for q = lo to hi do
    c.n_cross.(q) <- 0;
    c.cross_in.(q) <- 0.;
    c.c_batch.(q) <- 0.;
    c.min_cross_aft.(q) <- infinity;
    c.prec.(q) <- 0.
  done;
  for p = c.pred_off.(i) to c.pred_off.(i + 1) - 1 do
    let j = c.pred_src.(p) in
    let mj = c.pool_code.(j) in
    if mj < 0 then invalid_arg "Sched_state: parent not assigned";
    let e = c.pred_eid.(p) in
    let aft_j = c.aft.(j) in
    for q = lo to hi do
      if q = mj then begin
        if aft_j > c.prec.(q) then c.prec.(q) <- aft_j
      end
      else begin
        let k = c.n_cross.(q) in
        c.cross.(q).(k) <- e;
        c.n_cross.(q) <- k + 1;
        c.cross_in.(q) <- c.cross_in.(q) +. c.e_size.(e);
        if c.e_comm.(e) > c.c_batch.(q) then c.c_batch.(q) <- c.e_comm.(e);
        if aft_j < c.min_cross_aft.(q) then c.min_cross_aft.(q) <- aft_j;
        let arrival = aft_j +. c.e_comm.(e) in
        if arrival > c.prec.(q) then c.prec.(q) <- arrival
      end
    done
  done

let estimate_ready c i q =
  walk c i q q;
  finish c i q

(* Filled in a loop rather than by [Array.init c.n_pools (finish c i)],
   whose partial application allocates a closure on every probe. *)
let estimates_ready c i =
  walk c i 0 (c.n_pools - 1);
  let es = Array.make c.n_pools None in
  for q = 0 to c.n_pools - 1 do
    es.(q) <- finish c i q
  done;
  es

(* Minimum-EFT choice with the paper's tie-breaking (earlier EST, then the
   first argument — the lower pool when folded in pool order). *)
let better_estimate a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some ea, Some eb ->
    if eb.eft +. eps < ea.eft then b
    else if ea.eft +. eps < eb.eft then a
    else if eb.est +. eps < ea.est then b
    else a

let best_of estimates = Array.fold_left better_estimate None estimates
