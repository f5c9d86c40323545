type trace = {
  times : float array;
  blue : float array;
  red : float array;
}

(* kind 0 = free (applied first at equal times), kind 1 = alloc *)
type event = { time : float; kind : int; mem : Platform.memory; delta : float }

let nan_time = "Events.memory_trace: NaN time"

(* ------------------------------------------------------------ flat path --- *)

(* The flat reconstruction generates events straight into preallocated
   parallel arrays sized to the exact event count and orders them with
   one stable radix sort on time ([Radix.sort]) instead of a list sort.

   The reference orders events by (time, kind, seq descending): kind 0
   (frees) before kind 1 (allocations) at equal times, and equal (time,
   kind) events in reverse generation order.  Generation writes every
   event straight to its place in (kind, seq descending) order: frees fill
   [0, n_free) from the top down, allocations fill [n_free, m) from the top
   down.  A stable sort on time alone then leaves exactly the reference's
   order, asserted against [memory_trace_reference] by
   the parity tests and the sim-parity fuzz oracle.  That order is total
   (no two events share a seq), so any correct stable sort gives the same
   permutation, and the traces are bit-identical whichever sort runs.

   Generation order (and with it the seq tie-break) is exactly the
   reference's: per task, the start allocation then the finish free, tasks
   in id order; then per edge in id order, the transfer allocation then the
   transfer free.  Zero-delta events are skipped, as before. *)

(* Reusable working memory, grown on demand and retained across calls.
   Three float and two int buffers of [m] (+1) entries carry a trace
   through its phases:
   - [sc_times]: event times, sorted in place, then overwritten in place
     by the step times;
   - [sc_vals]: the sort payload, [slot lsl 1 lor mem_code];
   - [sc_fbuf], [sc_ibuf]: the sort's working space; [sc_fbuf] then holds
     the deltas in sorted order and is overwritten in place by the blue
     steps;
   - [sc_deltas]: deltas by slot, then the red steps;
   - [sc_mem]: the per-task memory codes.
   On large instances the fresh-page cost of these buffers dominates a
   verification sweep; sharing one scratch across validate/trace/stats
   makes every call after the first allocate nothing but the returned
   trace. *)
type scratch = {
  mutable sc_times : float array;
  mutable sc_vals : int array;
  mutable sc_fbuf : float array;
  mutable sc_ibuf : int array;
  mutable sc_deltas : float array;
  mutable sc_mem : int array;
}

let scratch () =
  {
    sc_times = [||];
    sc_vals = [||];
    sc_fbuf = [||];
    sc_ibuf = [||];
    sc_deltas = [||];
    sc_mem = [||];
  }

let grown_f a need = if Array.length a >= need then a else Array.create_float (max 1 need)
let grown_i a need = if Array.length a >= need then a else Array.make (max 1 need) 0

(* Compute the trace into [sc]'s step buffers without copying out:
   returns the step count.  Steps [0, count) live in the buffers
   {!scratch_steps} returns until the next trace over the scratch — the
   zero-copy form behind [memory_trace], used directly by the validator's
   memory phase and [Sched_stats.compute] so a verification sweep never
   materialises trace arrays it is only going to fold over. *)
let memory_trace_into sc g platform s =
  let n = Dag.n_tasks g and ne = Dag.n_edges g in
  let starts = s.Schedule.starts and procs = s.Schedule.procs in
  let wb = Dag.Csr.w_blue g and wr = Dag.Csr.w_red g in
  let in_sz = Dag.Csr.in_sz g and out_sz = Dag.Csr.out_sz g in
  let e_src = Dag.Csr.e_src g and e_dst = Dag.Csr.e_dst g in
  let e_size = Dag.Csr.e_size g and e_comm = Dag.Csr.e_comm g in
  let comm_starts = s.Schedule.comm_starts in
  (* Memory code per task (0 = blue, 1 = red), with the same range check
     [memory_of] applies. *)
  sc.sc_mem <- grown_i sc.sc_mem n;
  let mem_code = sc.sc_mem in
  for i = 0 to n - 1 do
    mem_code.(i) <-
      (match Platform.memory_of_proc platform procs.(i) with Platform.Blue -> 0 | Platform.Red -> 1)
  done;
  (* Count the events of each kind, so the buffers are sized exactly and
     each event is written once, to its final (kind, seq descending) slot.
     A cut edge without a transfer is not counted here: generation raises
     on it, after every task event, as the reference does. *)
  let n_free = ref 0 and n_alloc = ref 0 in
  for i = 0 to n - 1 do
    if not (Float.equal out_sz.(i) 0.) then incr n_alloc;
    if not (Float.equal (-.in_sz.(i)) 0.) then incr n_free
  done;
  for eid = 0 to ne - 1 do
    let cut = mem_code.(e_src.(eid)) <> mem_code.(e_dst.(eid)) in
    match comm_starts.(eid) with
    | Some _ when cut && not (Float.equal e_size.(eid) 0.) ->
      incr n_alloc;
      incr n_free
    | _ -> ()
  done;
  let m = !n_free + !n_alloc in
  (* Room for the m + 1 steps (step 0 is the empty memory at time 0). *)
  sc.sc_times <- grown_f sc.sc_times (m + 1);
  sc.sc_fbuf <- grown_f sc.sc_fbuf (m + 1);
  sc.sc_deltas <- grown_f sc.sc_deltas (m + 1);
  sc.sc_vals <- grown_i sc.sc_vals m;
  sc.sc_ibuf <- grown_i sc.sc_ibuf m;
  let times = sc.sc_times and vals = sc.sc_vals and deltas = sc.sc_deltas in
  (* The next free slot of each kind, counting down. *)
  let next_free = ref (!n_free - 1) and next_alloc = ref (m - 1) in
  (* Inlined, so [time] and [delta] are never boxed for the call. *)
  let[@inline] push time kind mem delta =
    if not (Float.equal delta 0.) then begin
      (* Same rejection (and message) as the reference path, so error
         behaviour stays bit-identical. *)
      if Float.is_nan time then invalid_arg nan_time;
      let slot =
        if kind = 0 then begin
          let k = !next_free in
          decr next_free;
          k
        end
        else begin
          let k = !next_alloc in
          decr next_alloc;
          k
        end
      in
      times.(slot) <- time;
      vals.(slot) <- (slot lsl 1) lor mem;
      deltas.(slot) <- delta
    end
  in
  for i = 0 to n - 1 do
    let mem = mem_code.(i) in
    let finish = starts.(i) +. (if mem = 0 then wb.(i) else wr.(i)) in
    push starts.(i) 1 mem out_sz.(i);
    push finish 0 mem (-.in_sz.(i))
  done;
  for eid = 0 to ne - 1 do
    let src_mem = mem_code.(e_src.(eid)) in
    if src_mem <> mem_code.(e_dst.(eid)) then begin
      match comm_starts.(eid) with
      | Some tau ->
        push tau 1 (1 - src_mem) e_size.(eid);
        push (tau +. e_comm.(eid)) 0 src_mem (-.e_size.(eid))
      | None -> invalid_arg "Events.memory_trace: cut edge without transfer"
    end
  done;
  (* Order the events by time; the slots already hold the tie order. *)
  Radix.sort times vals ~tmp_keys:sc.sc_fbuf ~tmp_vals:sc.sc_ibuf m;
  (* Deltas into sorted order; [deltas] is then free for the red steps. *)
  let sorted_deltas = sc.sc_fbuf in
  for k = 0 to m - 1 do
    sorted_deltas.(k) <- deltas.(vals.(k) lsr 1)
  done;
  (* Accumulate into the steps.  Step 0 is (0., 0., 0.); an event at an
     already-open instant overwrites the step in place, so the count only
     moves forward — exactly the reference's flush rule.  Step times and
     blue steps overwrite the event times and sorted deltas they are built
     from: the count never passes k + 1 while event k is consumed, and event
     k + 1 is read ahead before slot k + 1 can be written. *)
  let t_acc = times and b_acc = sorted_deltas and r_acc = deltas in
  let next_t = ref times.(0) and next_d = ref sorted_deltas.(0) in
  t_acc.(0) <- 0.;
  b_acc.(0) <- 0.;
  r_acc.(0) <- 0.;
  let count = ref 1 and last_t = ref 0. in
  let cur_blue = ref 0. and cur_red = ref 0. in
  for k = 0 to m - 1 do
    let t = !next_t and d = !next_d in
    if k + 1 < m then begin
      next_t := times.(k + 1);
      next_d := sorted_deltas.(k + 1)
    end;
    if vals.(k) land 1 = 0 then cur_blue := !cur_blue +. d else cur_red := !cur_red +. d;
    if Float.equal !last_t t then begin
      b_acc.(!count - 1) <- !cur_blue;
      r_acc.(!count - 1) <- !cur_red
    end
    else begin
      t_acc.(!count) <- t;
      b_acc.(!count) <- !cur_blue;
      r_acc.(!count) <- !cur_red;
      last_t := t;
      incr count
    end
  done;
  !count

let scratch_steps sc = (sc.sc_times, sc.sc_fbuf, sc.sc_deltas)

let memory_trace ?scratch:sc g platform s =
  let sc = match sc with Some sc -> sc | None -> scratch () in
  let count = memory_trace_into sc g platform s in
  {
    times = Array.sub sc.sc_times 0 count;
    blue = Array.sub sc.sc_fbuf 0 count;
    red = Array.sub sc.sc_deltas 0 count;
  }

(* ------------------------------------------------------- reference path --- *)

(* The pre-flattening pipeline, kept as the spec [memory_trace] above must
   stay bit-identical to: event records consed onto a list in generation
   order, one stable sort on (time, kind), so equal (time, kind) events keep
   reverse generation order; then reversed list accumulators. *)
let events_of_reference g platform s =
  let evs = ref [] in
  let push time kind mem delta =
    if not (Float.equal delta 0.) then begin
      if Float.is_nan time then invalid_arg nan_time;
      evs := { time; kind; mem; delta } :: !evs
    end
  in
  for i = 0 to Dag.n_tasks g - 1 do
    let mem = Schedule.memory_of platform s i in
    push s.Schedule.starts.(i) 1 mem (Dag.out_size g i);
    push (Schedule.finish g platform s i) 0 mem (-.Dag.in_size g i)
  done;
  for k = 0 to Dag.n_edges g - 1 do
    let e = Dag.edge g k in
    if Schedule.is_cut platform s e then begin
      match s.Schedule.comm_starts.(e.Dag.eid) with
      | Some tau ->
        let src_mem = Schedule.memory_of platform s e.Dag.src in
        push tau 1 (Platform.other src_mem) e.Dag.size;
        push (tau +. e.Dag.comm) 0 src_mem (-.e.Dag.size)
      | None -> invalid_arg "Events.memory_trace: cut edge without transfer"
    end
  done;
  List.stable_sort
    (fun a b ->
      let c = Float.compare a.time b.time in
      if c <> 0 then c else Int.compare a.kind b.kind)
    !evs

let memory_trace_reference g platform s =
  let evs = events_of_reference g platform s in
  let times = ref [ 0. ] and blue = ref [ 0. ] and red = ref [ 0. ] in
  let cur_blue = ref 0. and cur_red = ref 0. in
  let flush_step t =
    match !times with
    | last :: _ when Float.equal last t ->
      (* overwrite the step we just opened at the same instant *)
      blue := !cur_blue :: List.tl !blue;
      red := !cur_red :: List.tl !red
    | _ ->
      times := t :: !times;
      blue := !cur_blue :: !blue;
      red := !cur_red :: !red
  in
  List.iter
    (fun ev ->
      (match ev.mem with
      | Platform.Blue -> cur_blue := !cur_blue +. ev.delta
      | Platform.Red -> cur_red := !cur_red +. ev.delta);
      flush_step ev.time)
    evs;
  {
    times = Array.of_list (List.rev !times);
    blue = Array.of_list (List.rev !blue);
    red = Array.of_list (List.rev !red);
  }

(* ------------------------------------------------------------- queries --- *)

let step_index trace t =
  let lo = ref 0 and hi = ref (Array.length trace.times - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if trace.times.(mid) <= t then lo := mid else hi := mid - 1
  done;
  !lo

let usage_at trace mem t =
  let k = step_index trace t in
  match mem with Platform.Blue -> trace.blue.(k) | Platform.Red -> trace.red.(k)

let peak trace mem =
  let a = match mem with Platform.Blue -> trace.blue | Platform.Red -> trace.red in
  Array.fold_left Float.max 0. a

let peaks g platform s =
  let trace = memory_trace g platform s in
  (peak trace Platform.Blue, peak trace Platform.Red)

let usage_at_task_start g platform s i =
  let trace = memory_trace g platform s in
  usage_at trace (Schedule.memory_of platform s i) s.Schedule.starts.(i)
