(* The two workloads that call the library in-process: lu-big (the 10^6-task
   pipeline) and rand-sweep (the memory-bound sweep of §6.2). *)

open Harness

(* [f ()] with the instants it started and stopped. *)
let interval f =
  let t0 = Clock.now () in
  let r = f () in
  (r, (t0, Clock.now ()))

let span_sum speed intervals =
  List.fold_left (fun acc (start, stop) -> acc +. Speed.correct speed ~start ~stop) 0. intervals

let raw_sum intervals = List.fold_left (fun acc (start, stop) -> acc +. (stop -. start)) 0. intervals

(* The layers of the planning and verification pipeline, per task and per
   call. *)
let stage_layers tr =
  List.concat_map (Spans.per_task tr) [ "rank"; "heft"; "memheft"; "validate"; "trace"; "stats" ]
  @ [ ("rank.ms", Spans.ms_per_call tr "rank"); ("heft.ms_per_instance", Spans.ms_per_call tr "heft");
      ("validate.ms_per_op", Spans.ms_per_call tr "validate") ]

let same_schedule (a : Schedule.t) (b : Schedule.t) =
  let bits x = Int64.bits_of_float x in
  let n = Array.length a.Schedule.starts in
  let rec tasks i =
    i = n || (Int64.equal (bits a.starts.(i)) (bits b.starts.(i)) && a.procs.(i) = b.procs.(i) && tasks (i + 1))
  in
  let m = Array.length a.comm_starts in
  let rec edges i =
    i = m
    || (match (a.comm_starts.(i), b.comm_starts.(i)) with
       | None, None -> true
       | Some x, Some y -> Int64.equal (bits x) (bits y)
       | _ -> false)
       && edges (i + 1)
  in
  n = Array.length b.starts && m = Array.length b.comm_starts && tasks 0 && edges 0

let add_schedule fp (s : Schedule.t) =
  Array.iter (add_float fp) s.Schedule.starts;
  Array.iter (add_int fp) s.procs;
  Array.iter (function None -> add_int fp (-1) | Some x -> add_float fp x) s.comm_starts

(* ------------------------------------------------------------- lu-big --- *)

(* One pass of the 10^6-task pipeline.  The caps are HEFT's own measured
   peaks, the §6.2.1 regime where MemHEFT must take exactly HEFT's
   decisions.  Each stage is bracketed by speed readings; the stage
   intervals are returned for correction. *)
let lu_pass tr speed g platform =
  let n = Dag.n_tasks g in
  let intervals = ref [] in
  let stage name f =
    Speed.sample speed;
    let r, iv = interval (fun () -> Spans.span tr name ~work:n f) in
    intervals := iv :: !intervals;
    r
  in
  let out =
    let ranks = stage "rank" (fun () -> Rank.upward_ranks g) in
    let heft_s, (pb, pr) = stage "heft" (fun () -> Heuristics.heft_measured ~ranks g platform) in
    let capped = Platform.with_bounds platform ~m_blue:pb ~m_red:pr in
    match stage "memheft" (fun () -> Heuristics.memheft ~ranks g capped) with
    | Error f -> (heft_s, capped, Error ("MemHEFT refused at HEFT's peaks: " ^ f.Heuristics.reason))
    | Ok s -> (
      let scratch = Events.scratch () in
      match stage "validate" (fun () -> Validator.validate ~scratch g capped s) with
      | Error errs -> (heft_s, capped, Error ("validator: " ^ List.hd errs))
      | Ok report ->
        let trace = stage "trace" (fun () -> Events.memory_trace ~scratch g capped s) in
        let stats = stage "stats" (fun () -> Sched_stats.compute ~scratch g capped s) in
        (heft_s, capped, Ok (s, report, trace, stats)))
  in
  Speed.sample speed;
  (out, !intervals)

let lu_big cfg =
  let sz = cfg.sizes in
  let platform = Workloads.platform_mirage in
  let speed = Speed.create () in
  let dag_tr = Spans.create ~traced:false in
  let g, setup_times =
    repeat_setup ~speed sz.setups (fun () ->
        let g = Spans.span dag_tr "dag" (fun () -> Lu.generate ~pipeline_broadcasts:false ~n:sz.lu_n ()) in
        Spans.add_work dag_tr "dag" (Dag.n_tasks g);
        g)
  in
  let n = Dag.n_tasks g in
  let bit_equal = ref true in
  let phase tr =
    let fp = fingerprint () in
    let gc0 = gc_mark () in
    let passes =
      List.init sz.lu_passes (fun k ->
          Gc.compact ();
          let (heft_s, capped, out), intervals =
            Spans.span tr "pass" ~id:k ~work:n (fun () -> lu_pass tr speed g platform)
          in
          let timing = (span_sum speed intervals, raw_sum intervals) in
          (* Untimed checks: the pipeline's schedule must be HEFT's, bit for
             bit, so its makespan and peaks are HEFT's too. *)
          match out with
          | Error msg ->
            prerr_endline ("lu-big: " ^ msg);
            (timing, None)
          | Ok (s, (report : Validator.report), trace, (stats : Sched_stats.t)) ->
            let heft_makespan = Schedule.makespan g capped heft_s in
            if not (same_schedule s heft_s && Float.equal report.makespan heft_makespan) then
              bit_equal := false;
            add_schedule fp s;
            List.iter (add_float fp)
              [ report.makespan; report.peak_blue; report.peak_red; stats.Sched_stats.makespan;
                stats.transfer_volume; stats.avg_blue; stats.avg_red ];
            add_int fp (Array.length trace.Events.times);
            (timing, Some (report.makespan /. heft_makespan)))
    in
    let gc = gc_since gc0 in
    let ratios = List.filter_map snd passes in
    let pass_s = List.map (fun ((t, _), _) -> t) passes in
    let wall = List.fold_left ( +. ) 0. pass_s in
    {
      wall;
      raw_wall = List.fold_left (fun acc ((_, raw), _) -> acc +. raw) 0. passes;
      timing = timing ~tasks:(n * sz.lu_passes) ~wall (List.map ms pass_s);
      tasks = n * sz.lu_passes;
      ops = sz.lu_passes;
      aware = sz.lu_passes;
      solved = List.length ratios;
      ratios;
      failed = sz.lu_passes - List.length ratios;
      digest = hex fp;
      rss_mb = rss_peak_mb None;
      layers = stage_layers tr @ gc;
      tracer = tr;
      notes = [];
    }
  in
  let plain, traced = run_phases cfg phase in
  result ~workload:"lu-big" ~speed ~setup_times ~dag_tr ~plain ~traced
    ~checks:[ ("MemHEFT = HEFT bit for bit at HEFT's peaks", !bit_equal) ]

(* --------------------------------------------------------- rand-sweep --- *)

let alphas = [ 0.2; 0.3; 0.5; 0.7; 1.0 ]
let planners = [ (Heuristics.MemHEFT, "memheft"); (Heuristics.MemMinMin, "memminmin") ]

type op_outcome = Solved of Validator.report | Refused of int | Broken of string

type op = {
  planner : string;
  tasks : int;
  heft_makespan : float;
  outcome : op_outcome;
  plan_s : float;  (** the planner call alone, uncorrected *)
  span : float * float;  (** plan + validate *)
}

let rand_sweep cfg =
  let sz = cfg.sizes in
  let platform = Workloads.platform_random in
  let params = { Daggen.large_rand_params with Daggen.size = sz.rand_size } in
  let speed = Speed.create () in
  let dag_tr = Spans.create ~traced:false in
  let dags, setup_times =
    repeat_setup ~speed sz.setups (fun () ->
        let rng = Rng.create cfg.seed in
        let gs = Spans.span dag_tr "dag" (fun () -> Array.init sz.rand_dags (fun _ -> Daggen.generate rng params)) in
        Spans.add_work dag_tr "dag" (Array.fold_left (fun acc g -> acc + Dag.n_tasks g) 0 gs);
        gs)
  in
  let run_op tr ~id g p n h planner heft_makespan =
    let (outcome, plan_s), span =
      interval (fun () ->
          Spans.span tr "op" ~id (fun () ->
              match Spans.timed tr planner ~work:n (fun () -> Heuristics.run h g p) with
              | Error f, plan_s -> (Refused f.Heuristics.n_scheduled, plan_s)
              | Ok s, plan_s -> (
                match Spans.span tr "validate" ~work:n (fun () -> Validator.validate g p s) with
                | Ok r -> (Solved r, plan_s)
                | Error errs -> (Broken (List.hd errs), plan_s))
              | exception e -> (Broken (Printexc.to_string e), 0.)))
    in
    { planner; tasks = n; heft_makespan; outcome; plan_s; span }
  in
  (* One instance: HEFT for the peak, then every (alpha, planner) op. *)
  let instance tr failed i g =
    let n = Dag.n_tasks g in
    Spans.span tr "instance" ~id:i ~work:n (fun () ->
        let heft_s, (pb, pr) = Spans.span tr "heft" ~work:n (fun () -> Heuristics.heft_measured g platform) in
        let heft_makespan =
          match Spans.span tr "validate" ~work:n (fun () -> Validator.validate g platform heft_s) with
          | Ok r -> r.Validator.makespan
          | Error _ ->
            incr failed;
            Float.nan
        in
        let cap_base = Float.max pb pr in
        List.concat
          (List.mapi
             (fun a alpha ->
               let cap = alpha *. cap_base in
               let p = Platform.with_bounds platform ~m_blue:cap ~m_red:cap in
               List.mapi
                 (fun j (h, planner) ->
                   let id = (((i * List.length alphas) + a) * List.length planners) + j in
                   run_op tr ~id g p n h planner heft_makespan)
                 planners)
             alphas))
  in
  let phase tr =
    let fp = fingerprint () in
    let gc0 = gc_mark () in
    let failed = ref 0 and instances = ref [] in
    Spans.span tr "sweep" (fun () ->
        Array.iteri
          (fun i g ->
            Speed.tick speed;
            instances := interval (fun () -> instance tr failed i g) :: !instances)
          dags);
    Speed.sample speed;
    let gc = gc_since gc0 in
    let instances = List.rev !instances in
    let ops = List.concat_map fst instances in
    List.iter
      (fun op ->
        add_string fp op.planner;
        match op.outcome with
        | Solved r ->
          add_int fp 1;
          List.iter (add_float fp) [ r.Validator.makespan; r.peak_blue; r.peak_red ]
        | Refused k ->
          add_int fp 0;
          add_int fp k
        | Broken msg ->
          prerr_endline ("rand-sweep: " ^ msg);
          incr failed)
      ops;
    let ratios =
      List.filter_map
        (fun op -> match op.outcome with Solved r -> Some (r.Validator.makespan /. op.heft_makespan) | _ -> None)
        ops
    in
    let planner_layers (_, name) =
      let mine = List.filter (fun op -> String.equal op.planner name) ops in
      let times keep = List.filter_map (fun op -> if keep op.outcome then Some (ms op.plan_s) else None) mine in
      let attempted = List.fold_left (fun acc op -> acc + op.tasks) 0 mine in
      let wasted = List.fold_left (fun acc op -> match op.outcome with Refused k -> acc + k | _ -> acc) 0 mine in
      [ (name ^ ".solved_p50_ms", Sample.pct 0.5 (times (function Solved _ -> true | _ -> false)));
        (name ^ ".refused_p50_ms", Sample.pct 0.5 (times (function Refused _ -> true | _ -> false)));
        (name ^ ".wasted_frac", float_of_int wasted /. float_of_int (max 1 attempted)) ]
    in
    let intervals = List.map snd instances in
    let wall = span_sum speed intervals in
    let tasks = Array.fold_left (fun acc g -> acc + Dag.n_tasks g) 0 dags in
    {
      wall;
      raw_wall = raw_sum intervals;
      timing =
        timing ~tasks ~wall
          (List.map (fun op -> ms (Speed.correct speed ~start:(fst op.span) ~stop:(snd op.span))) ops);
      tasks;
      ops = List.length ops;
      aware = List.length ops;
      solved = List.length ratios;
      ratios;
      failed = !failed;
      digest = hex fp;
      rss_mb = rss_peak_mb None;
      layers = stage_layers tr @ List.concat_map planner_layers planners @ gc;
      tracer = tr;
      notes = [];
    }
  in
  let plain, traced = run_phases cfg phase in
  result ~workload:"rand-sweep" ~speed ~setup_times ~dag_tr ~plain ~traced ~checks:[]
