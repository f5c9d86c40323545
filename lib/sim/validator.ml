type report = {
  makespan : float;
  peak_blue : float;
  peak_red : float;
}

(* Every tolerance comparison below goes through the Fp helpers (the
   float-discipline invariant): the eps-expanded bound is computed exactly
   as the historical inline forms, so this is bit-identical.

   The flat validator replaces the reference's per-processor [tasks_of_proc]
   rescans (O(n·p)) with one [Schedule.tasks_by_proc] grouping pass
   (O(n + p) plus the per-group sorts) and walks edges through the CSR SoA
   arrays instead of boxed edge records.  With [?pool] it shards the edge
   and processor sweeps over the deterministic Par runtime; each shard
   accumulates its own error list over a contiguous ascending range and the
   lists are concatenated in shard order, so the report is byte-identical
   for every jobs count — and to [validate_reference]. *)

(* Shard widths for the parallel mode: coarse enough to amortise dispatch,
   fixed (never jobs-derived) so the shard set is reproducible. *)
let edge_shard = 16_384
let proc_shard = 2

let ranges ~shard len =
  let rec go lo acc =
    if lo >= len then List.rev acc
    else
      let hi = min len (lo + shard) in
      go hi ((lo, hi) :: acc)
  in
  go 0 []

let validate ?(eps = Fp.default_eps) ?pool ?scratch g platform s =
  let n = Dag.n_tasks g and ne = Dag.n_edges g in
  let name i = Dag.name g i in
  let nprocs = Platform.n_procs platform in
  let p_blue = Platform.n_procs_of platform Platform.Blue in
  let starts = s.Schedule.starts and procs = s.Schedule.procs in
  (* Placement sanity: serial, O(n), and the gate for everything after it
     (the flat passes below index arrays by processor). *)
  let placement = ref [] in
  let errp fmt = Printf.ksprintf (fun m -> placement := m :: !placement) fmt in
  for i = 0 to n - 1 do
    if procs.(i) < 0 || procs.(i) >= nprocs then
      errp "task %s: processor %d out of range" (name i) procs.(i);
    if Fp.lt ~eps starts.(i) 0. then errp "task %s: negative start %g" (name i) starts.(i)
  done;
  if !placement <> [] then Error (List.rev !placement)
  else begin
    let fin = Schedule.finishes g platform s in
    let comm_starts = s.Schedule.comm_starts in
    let e_src = Dag.Csr.e_src g and e_dst = Dag.Csr.e_dst g and e_comm = Dag.Csr.e_comm g in
    (* Transfer bookkeeping and flow constraints, over an edge-id range. *)
    let check_edges (lo, hi) =
      let errs = ref [] in
      let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
      for eid = lo to hi - 1 do
        let src = e_src.(eid) and dst = e_dst.(eid) in
        let cut = procs.(src) < p_blue <> (procs.(dst) < p_blue) in
        match (cut, comm_starts.(eid)) with
        | true, None -> err "edge %s->%s: cut edge without a transfer" (name src) (name dst)
        | false, Some _ ->
          err "edge %s->%s: same-memory edge with a spurious transfer" (name src) (name dst)
        | true, Some tau ->
          let f_src = fin.(src) in
          if Fp.gt ~eps f_src tau then
            err "edge %s->%s: transfer starts at %g before producer finishes at %g" (name src)
              (name dst) tau f_src;
          if Fp.gt ~eps (tau +. e_comm.(eid)) starts.(dst) then
            err "edge %s->%s: transfer ends at %g after consumer starts at %g" (name src)
              (name dst) (tau +. e_comm.(eid)) starts.(dst);
          if Fp.lt ~eps tau 0. then err "edge %s->%s: negative transfer start" (name src) (name dst)
        | false, None ->
          if Fp.gt ~eps fin.(src) starts.(dst) then
            err "edge %s->%s: consumer starts at %g before producer finishes at %g" (name src)
              (name dst) starts.(dst) fin.(src)
      done;
      List.rev !errs
    in
    (* Resource constraints: one grouping pass, then a flat overlap sweep of
       adjacent (start, finish, id)-sorted tasks over a processor range.
       Zero-duration tasks may share an instant with anything. *)
    let off, order = Schedule.tasks_by_proc g platform s in
    let check_procs (plo, phi) =
      let errs = ref [] in
      let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
      for p = plo to phi - 1 do
        for k = off.(p) to off.(p + 1) - 2 do
          let a = order.(k) and b = order.(k + 1) in
          if Fp.gt ~eps fin.(a) starts.(b) then
            err "processor %d: tasks %s and %s overlap ([%g,%g) vs start %g)" p (name a) (name b)
              starts.(a) fin.(a) starts.(b)
        done
      done;
      List.rev !errs
    in
    let sharded check ~shard len =
      match pool with
      | Some pool when Par.jobs pool > 1 && len > shard ->
        List.concat (Par.parallel_map pool ~f:check (ranges ~shard len))
      | _ -> check (0, len)
    in
    let errs =
      sharded check_edges ~shard:edge_shard ne @ sharded check_procs ~shard:proc_shard nprocs
    in
    (* Memory constraints — only reconstructible when the transfer
       bookkeeping is sound, so stop here otherwise. *)
    if errs <> [] then Error errs
    else begin
      (* Zero-copy trace: fold over the scratch's step prefix instead of
         materialising trace arrays this phase would only sweep once. *)
      let sc = match scratch with Some sc -> sc | None -> Events.scratch () in
      let nsteps = Events.memory_trace_into sc g platform s in
      let step_times, step_blue, step_red = Events.scratch_steps sc in
      let mem_errs = ref [] in
      let err fmt = Printf.ksprintf (fun m -> mem_errs := m :: !mem_errs) fmt in
      let check_mem mem =
        let cap = Platform.capacity platform mem in
        let usage = match mem with Platform.Blue -> step_blue | Platform.Red -> step_red in
        for k = 0 to nsteps - 1 do
          let u = usage.(k) in
          if Fp.gt ~eps u cap then
            err "%s memory: usage %g exceeds capacity %g at time %g"
              (Platform.memory_to_string mem) u cap step_times.(k);
          if Fp.lt ~eps u 0. then
            err "%s memory: negative usage %g at time %g (inconsistent file lifetimes)"
              (Platform.memory_to_string mem) u step_times.(k)
        done
      in
      check_mem Platform.Blue;
      check_mem Platform.Red;
      match List.rev !mem_errs with
      | [] ->
        (* The same ascending [Float.max] chains over the same values as
           [Schedule.makespan] and [Events.peak] — bit-identical. *)
        let peak_prefix a =
          let acc = ref 0. in
          for k = 0 to nsteps - 1 do
            acc := Float.max !acc a.(k)
          done;
          !acc
        in
        Ok
          {
            makespan = Array.fold_left Float.max 0. (if n = 0 then [||] else fin);
            peak_blue = peak_prefix step_blue;
            peak_red = peak_prefix step_red;
          }
      | errs -> Error errs
    end
  end

(* The pre-flattening validator, kept verbatim: per-processor task-list
   recursion over [tasks_of_proc], boxed edge records, the list-based
   reference trace.  [validate] must stay byte-identical to this — asserted
   by the A/B tests and the sim-parity fuzz oracle. *)
let validate_reference ?(eps = Fp.default_eps) g platform s =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let n = Dag.n_tasks g in
  let name i = Dag.name g i in
  (* Placement sanity. *)
  for i = 0 to n - 1 do
    if s.Schedule.procs.(i) < 0 || s.Schedule.procs.(i) >= Platform.n_procs platform then
      err "task %s: processor %d out of range" (name i) s.Schedule.procs.(i);
    if Fp.lt ~eps s.Schedule.starts.(i) 0. then err "task %s: negative start %g" (name i) s.Schedule.starts.(i)
  done;
  if !errors <> [] then Error (List.rev !errors)
  else begin
    (* Transfer bookkeeping and flow constraints. *)
    for k = 0 to Dag.n_edges g - 1 do
      let e = Dag.edge g k in
      let cut = Schedule.is_cut platform s e in
      let tau = s.Schedule.comm_starts.(e.Dag.eid) in
      match (cut, tau) with
      | true, None -> err "edge %s->%s: cut edge without a transfer" (name e.Dag.src) (name e.Dag.dst)
      | false, Some _ ->
        err "edge %s->%s: same-memory edge with a spurious transfer" (name e.Dag.src)
          (name e.Dag.dst)
      | true, Some tau ->
        let f_src = Schedule.finish g platform s e.Dag.src in
        if Fp.gt ~eps f_src tau then
          err "edge %s->%s: transfer starts at %g before producer finishes at %g" (name e.Dag.src)
            (name e.Dag.dst) tau f_src;
        if Fp.gt ~eps (tau +. e.Dag.comm) s.Schedule.starts.(e.Dag.dst) then
          err "edge %s->%s: transfer ends at %g after consumer starts at %g" (name e.Dag.src)
            (name e.Dag.dst) (tau +. e.Dag.comm) s.Schedule.starts.(e.Dag.dst);
        if Fp.lt ~eps tau 0. then err "edge %s->%s: negative transfer start" (name e.Dag.src) (name e.Dag.dst)
      | false, None ->
        let f_src = Schedule.finish g platform s e.Dag.src in
        if Fp.gt ~eps f_src s.Schedule.starts.(e.Dag.dst) then
          err "edge %s->%s: consumer starts at %g before producer finishes at %g" (name e.Dag.src)
            (name e.Dag.dst) s.Schedule.starts.(e.Dag.dst) f_src
    done;
    (* Resource constraints: sweep each processor's tasks by start time.
       Zero-duration tasks may share an instant with anything. *)
    for p = 0 to Platform.n_procs platform - 1 do
      let tasks = Schedule.tasks_of_proc g platform s p in
      let rec check = function
        | a :: (b :: _ as rest) ->
          let fin_a = Schedule.finish g platform s a in
          if Fp.gt ~eps fin_a s.Schedule.starts.(b) then
            err "processor %d: tasks %s and %s overlap ([%g,%g) vs start %g)" p (name a) (name b)
              s.Schedule.starts.(a) fin_a s.Schedule.starts.(b);
          check rest
        | _ -> ()
      in
      check tasks
    done;
    (* Memory constraints — only reconstructible when the transfer
       bookkeeping is sound, so stop here otherwise. *)
    if !errors <> [] then Error (List.rev !errors)
    else begin
    let trace = Events.memory_trace_reference g platform s in
    let check_mem mem =
      let cap = Platform.capacity platform mem in
      let usage = match mem with Platform.Blue -> trace.Events.blue | Platform.Red -> trace.Events.red in
      Array.iteri
        (fun k u ->
          if Fp.gt ~eps u cap then
            err "%s memory: usage %g exceeds capacity %g at time %g"
              (Platform.memory_to_string mem) u cap trace.Events.times.(k);
          if Fp.lt ~eps u 0. then
            err "%s memory: negative usage %g at time %g (inconsistent file lifetimes)"
              (Platform.memory_to_string mem) u trace.Events.times.(k))
        usage
    in
    check_mem Platform.Blue;
    check_mem Platform.Red;
    match List.rev !errors with
    | [] ->
      Ok
        {
          makespan = Schedule.makespan g platform s;
          peak_blue = Events.peak trace Platform.Blue;
          peak_red = Events.peak trace Platform.Red;
        }
    | errs -> Error errs
    end
  end

let validate_exn ?eps ?pool ?scratch g platform s =
  match validate ?eps ?pool ?scratch g platform s with
  | Ok r -> r
  | Error errs -> failwith (String.concat "\n" errs)
