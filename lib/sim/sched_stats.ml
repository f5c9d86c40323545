type per_proc = {
  proc : int;
  memory : Platform.memory;
  n_tasks : int;
  busy : float;
  idle : float;
}

type t = {
  makespan : float;
  total_work : float;
  per_proc : per_proc list;
  mean_utilisation : float;
  n_transfers : int;
  transfer_volume : float;
  transfer_time : float;
  peak_blue : float;
  peak_red : float;
  avg_blue : float;
  avg_red : float;
  tasks_on_blue : int;
  tasks_on_red : int;
}

let time_average trace usage horizon =
  if horizon <= 0. then 0.
  else begin
    let times = trace.Events.times in
    let acc = ref 0. in
    Array.iteri
      (fun k u ->
        let t0 = times.(k) in
        let t1 = if k + 1 < Array.length times then times.(k + 1) else horizon in
        let t1 = Float.min t1 horizon in
        if t1 > t0 then acc := !acc +. (u *. (t1 -. t0)))
      usage;
    !acc /. horizon
  end

(* Flat implementation: per-task costs come from the CSR SoA arrays (the
   same floats as the boxed accessors), transfers from a flat edge-id sweep,
   the trace from the flat [Events.memory_trace].  Accumulation order is
   exactly [compute_reference]'s, so every field is bit-identical to it. *)
let compute ?scratch g platform s =
  let n = Dag.n_tasks g and ne = Dag.n_edges g in
  let fin = Schedule.finishes g platform s in
  let makespan = Array.fold_left Float.max 0. (if n = 0 then [||] else fin) in
  let nprocs = Platform.n_procs platform in
  let procs = s.Schedule.procs in
  let wb = Dag.Csr.w_blue g and wr = Dag.Csr.w_red g in
  let busy = Array.make nprocs 0. in
  let counts = Array.make nprocs 0 in
  let total_work = ref 0. in
  let on_blue = ref 0 and on_red = ref 0 in
  for i = 0 to n - 1 do
    let p = procs.(i) in
    (* The raw weight, not [fin - start]: the subtraction would not be
       bit-identical to the reference's [duration]. *)
    let w =
      match Platform.memory_of_proc platform p with
      | Platform.Blue ->
        incr on_blue;
        wb.(i)
      | Platform.Red ->
        incr on_red;
        wr.(i)
    in
    busy.(p) <- busy.(p) +. w;
    counts.(p) <- counts.(p) + 1;
    total_work := !total_work +. w
  done;
  let per_proc =
    List.init nprocs (fun p ->
        {
          proc = p;
          memory = Platform.memory_of_proc platform p;
          n_tasks = counts.(p);
          busy = busy.(p);
          idle = Float.max 0. (makespan -. busy.(p));
        })
  in
  let e_size = Dag.Csr.e_size g and e_comm = Dag.Csr.e_comm g in
  let comm_starts = s.Schedule.comm_starts in
  let n_transfers = ref 0 and volume = ref 0. and ttime = ref 0. in
  for eid = 0 to ne - 1 do
    match comm_starts.(eid) with
    | Some _ ->
      incr n_transfers;
      volume := !volume +. e_size.(eid);
      ttime := !ttime +. e_comm.(eid)
    | None -> ()
  done;
  (* Zero-copy trace: fold peaks and time averages over the scratch's step
     prefix — same loops and float operations as [Events.peak] /
     [time_average] over materialised arrays, so every field stays
     bit-identical to the reference. *)
  let sc = match scratch with Some sc -> sc | None -> Events.scratch () in
  let nsteps = Events.memory_trace_into sc g platform s in
  let step_times, step_blue, step_red = Events.scratch_steps sc in
  let peak_prefix a =
    let acc = ref 0. in
    for k = 0 to nsteps - 1 do
      acc := Float.max !acc a.(k)
    done;
    !acc
  in
  let time_average_prefix usage horizon =
    if horizon <= 0. then 0.
    else begin
      let acc = ref 0. in
      for k = 0 to nsteps - 1 do
        let t0 = step_times.(k) in
        let t1 = if k + 1 < nsteps then step_times.(k + 1) else horizon in
        let t1 = Float.min t1 horizon in
        if t1 > t0 then acc := !acc +. (usage.(k) *. (t1 -. t0))
      done;
      !acc /. horizon
    end
  in
  {
    makespan;
    total_work = !total_work;
    per_proc;
    mean_utilisation =
      (if makespan <= 0. then 0.
       else Array.fold_left ( +. ) 0. busy /. (float_of_int nprocs *. makespan));
    n_transfers = !n_transfers;
    transfer_volume = !volume;
    transfer_time = !ttime;
    peak_blue = peak_prefix step_blue;
    peak_red = peak_prefix step_red;
    avg_blue = time_average_prefix step_blue makespan;
    avg_red = time_average_prefix step_red makespan;
    tasks_on_blue = !on_blue;
    tasks_on_red = !on_red;
  }

(* The pre-flattening implementation kept verbatim (boxed accessors, edge
   records, reference trace): the A/B baseline for the parity tests and the
   sim-parity fuzz oracle. *)
let compute_reference g platform s =
  let makespan = Schedule.makespan g platform s in
  let nprocs = Platform.n_procs platform in
  let busy = Array.make nprocs 0. in
  let counts = Array.make nprocs 0 in
  let total_work = ref 0. in
  let on_blue = ref 0 and on_red = ref 0 in
  for i = 0 to Dag.n_tasks g - 1 do
    let p = s.Schedule.procs.(i) in
    let w = Schedule.duration g platform s i in
    busy.(p) <- busy.(p) +. w;
    counts.(p) <- counts.(p) + 1;
    total_work := !total_work +. w;
    match Schedule.memory_of platform s i with
    | Platform.Blue -> incr on_blue
    | Platform.Red -> incr on_red
  done;
  let per_proc =
    List.init nprocs (fun p ->
        {
          proc = p;
          memory = Platform.memory_of_proc platform p;
          n_tasks = counts.(p);
          busy = busy.(p);
          idle = Float.max 0. (makespan -. busy.(p));
        })
  in
  let n_transfers = ref 0 and volume = ref 0. and ttime = ref 0. in
  let e_size = Dag.Csr.e_size g and e_comm = Dag.Csr.e_comm g in
  for k = 0 to Dag.n_edges g - 1 do
    match s.Schedule.comm_starts.(k) with
    | Some _ ->
      incr n_transfers;
      volume := !volume +. e_size.(k);
      ttime := !ttime +. e_comm.(k)
    | None -> ()
  done;
  let trace = Events.memory_trace_reference g platform s in
  {
    makespan;
    total_work = !total_work;
    per_proc;
    mean_utilisation =
      (if makespan <= 0. then 0.
       else Array.fold_left ( +. ) 0. busy /. (float_of_int nprocs *. makespan));
    n_transfers = !n_transfers;
    transfer_volume = !volume;
    transfer_time = !ttime;
    peak_blue = Events.peak trace Platform.Blue;
    peak_red = Events.peak trace Platform.Red;
    avg_blue = time_average trace trace.Events.blue makespan;
    avg_red = time_average trace trace.Events.red makespan;
    tasks_on_blue = !on_blue;
    tasks_on_red = !on_red;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "makespan:          %g@," t.makespan;
  Format.fprintf ppf "total work:        %g (utilisation %.0f%%)@," t.total_work
    (100. *. t.mean_utilisation);
  Format.fprintf ppf "task placement:    %d blue, %d red@," t.tasks_on_blue t.tasks_on_red;
  Format.fprintf ppf "transfers:         %d (volume %g, time %g)@," t.n_transfers t.transfer_volume
    t.transfer_time;
  Format.fprintf ppf "memory peaks:      blue %g, red %g@," t.peak_blue t.peak_red;
  Format.fprintf ppf "memory avg:        blue %.1f, red %.1f@," t.avg_blue t.avg_red;
  List.iter
    (fun p ->
      Format.fprintf ppf "proc %-2d (%-4s):    %d tasks, busy %g, idle %g@," p.proc
        (Platform.memory_to_string p.memory)
        p.n_tasks p.busy p.idle)
    t.per_proc;
  Format.fprintf ppf "@]"
