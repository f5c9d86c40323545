(* The two daemon workloads: serve-open (independent users, an open loop
   with repeats the cache can serve) and serve-burst (unique compute-bound
   requests, all due at once; the control for any cache change). *)

open Harness

let jobs = 2
let algos = [| Heuristics.MemHEFT; Heuristics.MemMinMin; Heuristics.HEFT; Heuristics.MinMin |]
let platform = Workloads.platform_random

(* A distinct DAG with what its requests are judged against. *)
type instance = { dag : Dag.t; heft_makespan : float; peak : float }

let instance g =
  let s, (pb, pr) = Heuristics.heft_measured g platform in
  { dag = g; heft_makespan = Schedule.makespan g platform s; peak = Float.max pb pr }

let request ~id ~algo ~cap inst =
  {
    Wire.id = Int64.of_int id;
    algo = Wire.Heuristic algo;
    seed = 0L;
    restarts = 0;
    node_limit = 0;
    platform = Platform.with_bounds platform ~m_blue:cap ~m_red:cap;
    dag = inst.dag;
  }

let frame_of req = Wire.frame (Wire.encode_message (Wire.Request req))

(* Response body bytes: the payload after version, kind and the 8-byte id. *)
let body p = if String.length p < 10 then p else String.sub p 10 (String.length p - 10)

let is_memory_aware (req : Wire.request) =
  match req.algo with Wire.Heuristic h -> Heuristics.is_memory_aware h | _ -> false

(* One response judged against its request: decoded, and any schedule
   re-validated against the request's DAG and caps (memory-oblivious
   algorithms plan against unbounded memories and are held to those), with
   the daemon's reported makespan and peaks required bit-equal to the
   validator's. *)
let verdict (req : Wire.request) payload =
  match Wire.decode_message payload with
  | Ok (Wire.Response { rid; body }) when Int64.equal rid req.id -> (
    match body with
    | Wire.Schedule ok -> (
      let s = { Schedule.starts = ok.Wire.starts; procs = ok.procs; comm_starts = ok.comm_starts } in
      let caps =
        if is_memory_aware req then req.platform
        else Platform.with_bounds req.platform ~m_blue:Float.infinity ~m_red:Float.infinity
      in
      match Validator.validate req.dag caps s with
      | Ok r
        when Float.equal r.Validator.makespan ok.makespan
             && Float.equal r.peak_blue ok.peak_blue
             && Float.equal r.peak_red ok.peak_red ->
        `Solved ok.makespan
      | Ok _ -> `Bad "reported makespan or peaks differ from the validator's"
      | Error errs -> `Bad ("validator: " ^ List.hd errs))
    | Wire.Infeasible _ -> if is_memory_aware req then `Refused else `Bad "memory-oblivious request refused"
    | Wire.Failure { code; message } -> `Bad (Printf.sprintf "Failure frame %d: %s" code message)
    | Wire.Stats_reply _ -> `Bad "stats reply to a schedule request")
  | Ok _ -> `Bad "response id differs from the request's"
  | Error e -> `Bad ("undecodable response: " ^ Wire.error_to_string e)

(* Correctness and cache figures accumulated over every drive of a phase. *)
type tally = {
  mutable failed : int;
  mutable aware : int;
  mutable solved : int;
  mutable ratios : float list;
  mutable hits : int;
  mutable requests : int;
  mutable computed : int;
}

let tally () = { failed = 0; aware = 0; solved = 0; ratios = []; hits = 0; requests = 0; computed = 0 }

let fail t msg =
  if t.failed < 5 then prerr_endline msg;
  t.failed <- t.failed + 1

(* Untimed, after a drive: judge every response (on a 2-domain pool), check
   that each repeat got its original's bytes, and read the closing stats
   reply.  [origin.(k)] is the request whose bytes request [k] repeats
   ([k] itself for a first occurrence). *)
let check t fp ~reqs ~origin ~heft (run : Daemon.run) =
  let n = Array.length reqs in
  let verdicts =
    Par.with_pool ~jobs (fun pool ->
        Par.parallel_map ~chunk:16 pool
          ~f:(fun k -> verdict reqs.(k) run.Daemon.payloads.(k))
          (List.init n Fun.id))
  in
  List.iteri
    (fun k v ->
      let aware = is_memory_aware reqs.(k) in
      if aware then t.aware <- t.aware + 1;
      match v with
      | `Solved m ->
        if aware then (
          t.solved <- t.solved + 1;
          t.ratios <- (m /. heft.(k)) :: t.ratios)
      | `Refused -> ()
      | `Bad msg -> fail t msg)
    verdicts;
  Array.iteri
    (fun k o ->
      if o <> k && not (String.equal (body run.payloads.(k)) (body run.payloads.(o))) then
        fail t (Printf.sprintf "request %d: repeat answered with other bytes than its original" k))
    origin;
  (match Wire.decode_message run.payloads.(n) with
  | Ok (Wire.Response { body = Wire.Stats_reply s; _ }) ->
    t.hits <- t.hits + s.Wire.cache_hits;
    t.requests <- t.requests + s.requests;
    t.computed <- t.computed + s.computed
  | _ -> fail t "no stats reply at the end of the stream");
  Array.iter (add_string fp) run.payloads

(* Per-layer replays, in-process and after the traced drive: decode every
   request payload ([Wire]), recompute each first occurrence serially
   ([Serve_dispatch]; its bytes must equal the daemon's), then again on a
   2-domain [Par] pool.  [server.hold] is a response's latency minus its
   request's dispatch time. *)
let replay tr t ~frames ~reqs ~origin ~(run : Daemon.run) ~due =
  let n = Array.length reqs in
  let payloads = Array.init n (fun k -> String.sub frames.(k) 4 (String.length frames.(k) - 4)) in
  let (), decode_s =
    Spans.timed tr "wire" ~work:n (fun () ->
        Array.iter
          (fun p -> match Wire.decode_message p with Ok _ -> () | Error _ -> fail t "request does not decode")
          payloads)
  in
  let dispatch = Array.make n 0. in
  Array.iteri
    (fun k req ->
      if origin.(k) = k then (
        let bytes, dt = Spans.timed tr "dispatch" ~id:k (fun () -> Serve_dispatch.compute_bytes req) in
        dispatch.(k) <- dt;
        if not (String.equal bytes (body run.Daemon.payloads.(k))) then
          fail t (Printf.sprintf "request %d: in-process dispatch differs from the daemon's bytes" k)))
    reqs;
  let firsts = List.filter (fun k -> origin.(k) = k) (List.init n Fun.id) in
  let dispatch_ms = List.map (fun k -> ms dispatch.(k)) firsts in
  let serial = Array.fold_left ( +. ) 0. dispatch in
  let counters, par_wall =
    Par.with_pool ~jobs (fun pool ->
        let uniques = List.map (fun k -> reqs.(k)) firsts in
        let _, wall =
          Spans.timed tr "par" (fun () -> Par.parallel_map pool ~f:Serve_dispatch.compute_bytes uniques)
        in
        (Par.counters pool, wall))
  in
  let hold = List.init n (fun k -> ms (run.answered.(k) -. due.(k) -. dispatch.(k))) in
  [ ("wire.decode_us_per_req", decode_s *. 1e6 /. float_of_int (max 1 n));
    ("dispatch.p50_ms", Sample.pct 0.5 dispatch_ms);
    ("dispatch.ms_per_req", ms serial /. float_of_int (max 1 (List.length firsts)));
    ("server.hold_p50_ms", Sample.pct 0.50 hold);
    ("server.hold_p99_ms", Sample.pct 0.99 hold);
    ("par.busy_frac", counters.Par.worker_busy_s /. (float_of_int jobs *. par_wall));
    ("par.submit_wait_s", counters.submit_wait_s);
    ("par.worker_wait_s", counters.worker_wait_s);
    ("par.speedup", serial /. par_wall) ]

(* Record each request as an async span, due time to response. *)
let record_requests tr ~reqs ~(run : Daemon.run) ~due =
  Array.iteri
    (fun k (req : Wire.request) ->
      Spans.record tr "request" ~id:(Int64.to_int req.id) ~start:due.(k) ~stop:run.Daemon.answered.(k))
    reqs

(* The phase record of a daemon workload, from its tally and timings. *)
let phase_of t ~wall ~raw_wall ~timing ~late_ms ~tasks ~rss_mb ~digest ~layers ~tracer ~notes =
  {
    wall;
    raw_wall;
    timing;
    tasks;
    ops = timing.samples;
    aware = t.aware;
    solved = t.solved;
    ratios = t.ratios;
    failed = t.failed;
    digest;
    rss_mb;
    layers =
      [ ("cache.hit_frac", float_of_int t.hits /. float_of_int (max 1 t.requests));
        ("cache.computed", float_of_int t.computed);
        ("loadgen.late_p99_ms", Sample.pct 0.99 late_ms) ]
      @ layers;
    tracer;
    notes;
  }

(* --------------------------------------------------------- serve-open --- *)

type open_inputs = {
  reqs : Wire.request array;
  frames : string array;  (** one per request, then the closing stats request *)
  origin : int array;
  heft : float array;
  offsets : float array;  (** due times, seconds after the start of the loop *)
  daemon : Daemon.t;
}

(* [m] exponential gaps of mean [1 / rate] by stratified sampling: the
   quantiles at [(i + 1/2) / m], in a seeded order. *)
let stratified_gaps rng ~rate m =
  let g = Array.init m (fun i -> -.log (1. -. ((float_of_int i +. 0.5) /. float_of_int m)) /. rate) in
  Rng.shuffle rng g;
  g

(* The seed draws, in order: which requests repeat an earlier one (exactly
   [open_repeat] of them) and which one each repeats, each new DAG's size
   and shape, then the order of the arrival gaps.  The gaps are exponential
   with mean [1 / rate] (Poisson arrivals), drawn by stratified sampling
   within two strata: the gaps that follow a first occurrence (a cache miss,
   whose response the daemon holds until the next arrival) and those that
   follow a repeat.  So every seed offers the same gaps to the same kind of
   request, and a latency percentile does not carry the sampling noise of
   the arrival process. *)
let open_setup cfg dag_tr () =
  let sz = cfg.sizes in
  let n = sz.open_requests in
  let rng = Rng.create cfg.seed in
  let repeats = Array.make n false in
  List.iter
    (fun k -> repeats.(k + 1) <- true)
    (Rng.sample_distinct rng ~k:(int_of_float (sz.open_repeat *. float_of_int (n - 1))) ~n:(n - 1));
  let firsts = Array.make n 0 and n_first = ref 0 in
  let origin =
    Array.init n (fun k ->
        if repeats.(k) then firsts.(Rng.int rng !n_first)
        else (
          firsts.(!n_first) <- k;
          incr n_first;
          k))
  in
  let lo, hi = sz.open_tasks in
  let dags =
    Spans.span dag_tr "dag" (fun () ->
        Array.init !n_first (fun _ ->
            let size = Rng.int_incl rng lo hi in
            Daggen.generate rng { Daggen.small_rand_params with Daggen.size }))
  in
  Spans.add_work dag_tr "dag" (Array.fold_left (fun acc g -> acc + Dag.n_tasks g) 0 dags);
  let insts = Array.map instance dags in
  let ordinal = Array.make n 0 in
  Array.iteri (fun u k -> ordinal.(k) <- u) (Array.sub firsts 0 !n_first);
  let reqs =
    Array.init n (fun k ->
        let u = ordinal.(origin.(k)) in
        let inst = insts.(u) in
        request ~id:(k + 1) ~algo:algos.(u mod Array.length algos) ~cap:(0.6 *. inst.peak) inst)
  in
  let frames = Array.append (Array.map frame_of reqs) [| Daemon.stats_frame (Int64.of_int (n + 1)) |] in
  let is_first k = origin.(k) = k in
  let count p = List.length (List.filter p (List.init (n - 1) Fun.id)) in
  let after_first = stratified_gaps rng ~rate:sz.open_rate (count is_first) in
  let after_repeat = stratified_gaps rng ~rate:sz.open_rate (count (fun k -> not (is_first k))) in
  let used_first = ref 0 and used_repeat = ref 0 in
  let take pool used =
    incr used;
    pool.(!used - 1)
  in
  let gaps =
    Array.init n (fun k ->
        if k = 0 then 1. /. sz.open_rate
        else if is_first (k - 1) then take after_first used_first
        else take after_repeat used_repeat)
  in
  let offsets = Array.make n 0. in
  Array.iteri (fun k g -> offsets.(k) <- (if k = 0 then g else offsets.(k - 1) +. g)) gaps;
  let daemon = Daemon.spawn ~exe:cfg.daemon ~jobs in
  let heft = Array.init n (fun k -> insts.(ordinal.(origin.(k))).heft_makespan) in
  { reqs; frames; origin; heft; offsets; daemon }

let serve_open cfg =
  let speed = Speed.create () in
  let dag_tr = Spans.create ~traced:false in
  let inputs, setup_times =
    repeat_setup ~speed cfg.sizes.setups (open_setup cfg dag_tr)
      ~discard:(fun i -> ignore (Daemon.finish i.daemon))
  in
  let { reqs; frames; origin; heft; offsets; _ } = inputs in
  let n = Array.length reqs in
  (* The untraced phase uses the set-up's daemon, a traced one a fresh
     daemon: the cache must start cold both times. *)
  let phase tr =
    let daemon = if Spans.traced tr then Daemon.spawn ~exe:cfg.daemon ~jobs else inputs.daemon in
    let t = tally () and fp = fingerprint () in
    let gc0 = gc_mark () in
    let t0 = Clock.now () in
    let due = Array.init (n + 1) (fun k -> t0 +. offsets.(min k (n - 1))) in
    let run =
      Spans.span tr "open-loop" (fun () ->
          let run = Daemon.drive daemon ~frames ~due in
          record_requests tr ~reqs ~run ~due;
          run)
    in
    let gc = gc_since gc0 in
    let wall = Array.fold_left Float.max t0 run.answered -. t0 in
    (match Daemon.finish daemon with [] -> () | _ -> fail t "frames after the stats reply");
    check t fp ~reqs ~origin ~heft run;
    let layers = if Spans.traced tr then replay tr t ~frames ~reqs ~origin ~run ~due else [] in
    let late_ms = List.init n (fun k -> ms (run.started.(k) -. due.(k))) in
    let late = Sample.pct 0.99 late_ms in
    (* The loop mostly waits on the arrival clock, so its timings stay
       uncorrected. *)
    let tasks = Array.fold_left (fun acc (r : Wire.request) -> acc + Dag.n_tasks r.dag) 0 reqs in
    phase_of t ~wall ~raw_wall:wall
      ~timing:(timing ~tasks ~wall (List.init n (fun k -> ms (run.answered.(k) -. due.(k)))))
      ~late_ms ~tasks ~rss_mb:run.rss_mb ~digest:(hex fp) ~layers:(layers @ gc)
      ~tracer:tr
      ~notes:
        (if late > 5. then
           [ Printf.sprintf "run void: the generator ran %.2f ms late at p99 (limit 5 ms)" late ]
         else [])
  in
  let plain, traced = run_phases cfg phase in
  result ~workload:"serve-open" ~speed ~setup_times ~dag_tr ~plain ~traced ~checks:[]

(* -------------------------------------------------------- serve-burst --- *)

type burst_inputs = {
  insts : instance array;
  first_frames : string array;  (** burst 0, encoded during set-up *)
  first_daemon : Daemon.t;
}

(* Request [k] of the run uses DAG [k mod pool], the algorithm [(k / pool)
   mod 4] and a cap of [(0.5 + 0.5 k / total)] times its DAG's HEFT peak,
   so no two requests of a run share bytes and every one misses the cache. *)
let burst_request cfg insts k =
  let sz = cfg.sizes in
  let pool = Array.length insts in
  let total = sz.bursts * sz.burst_requests in
  let inst = insts.(k mod pool) in
  let frac = 0.5 +. (0.5 *. float_of_int k /. float_of_int total) in
  request ~id:(k + 1) ~algo:algos.(k / pool mod Array.length algos) ~cap:(frac *. inst.peak) inst

(* Burst [b]'s requests with the HEFT makespan of each one's DAG. *)
let burst_batch cfg insts b =
  let ks = Array.init cfg.sizes.burst_requests (fun i -> (b * cfg.sizes.burst_requests) + i) in
  ( Array.map (burst_request cfg insts) ks,
    Array.map (fun k -> insts.(k mod Array.length insts).heft_makespan) ks )

let burst_frames reqs = Array.append (Array.map frame_of reqs) [| Daemon.stats_frame 0L |]

let burst_setup cfg dag_tr () =
  let sz = cfg.sizes in
  let rng = Rng.create cfg.seed in
  let lo, hi = sz.burst_tasks in
  let dags =
    Spans.span dag_tr "dag" (fun () ->
        Array.init sz.burst_pool (fun _ ->
            let size = Rng.int_incl rng lo hi in
            Daggen.generate rng { Daggen.large_rand_params with Daggen.size }))
  in
  Spans.add_work dag_tr "dag" (Array.fold_left (fun acc g -> acc + Dag.n_tasks g) 0 dags);
  let insts = Array.map instance dags in
  let first_frames = burst_frames (fst (burst_batch cfg insts 0)) in
  { insts; first_frames; first_daemon = Daemon.spawn ~exe:cfg.daemon ~jobs }

let serve_burst cfg =
  let sz = cfg.sizes in
  let speed = Speed.create () in
  let dag_tr = Spans.create ~traced:false in
  let inputs, setup_times =
    repeat_setup ~speed sz.setups (burst_setup cfg dag_tr)
      ~discard:(fun i -> ignore (Daemon.finish i.first_daemon))
  in
  let phase tr =
    let t = tally () and fp = fingerprint () in
    let bursts = ref [] and late = ref [] and rss = ref [] in
    let layers = ref [] in
    let gc0 = gc_mark () in
    for b = 0 to sz.bursts - 1 do
      (* Gap, untimed: the burst's requests and a fresh daemon. *)
      let reqs, heft = burst_batch cfg inputs.insts b in
      let frames = if b = 0 then inputs.first_frames else burst_frames reqs in
      let daemon =
        if b = 0 && not (Spans.traced tr) then inputs.first_daemon else Daemon.spawn ~exe:cfg.daemon ~jobs
      in
      let n = Array.length reqs in
      (* Speed readings bracket the burst while no daemon is computing: the
         new one waits on its first read, the old one has exited. *)
      Speed.sample speed;
      let t0 = Clock.now () in
      let due = Array.make (n + 1) t0 in
      let run =
        Spans.span tr "burst" ~id:b (fun () ->
            let run = Daemon.drive daemon ~frames ~due in
            record_requests tr ~reqs ~run ~due;
            run)
      in
      let stop = Array.fold_left Float.max t0 run.answered in
      let tasks = Array.fold_left (fun acc (r : Wire.request) -> acc + Dag.n_tasks r.dag) 0 reqs in
      bursts := (t0, stop, tasks, Array.sub run.answered 0 n) :: !bursts;
      late := List.rev_append (List.init n (fun k -> ms (run.started.(k) -. t0))) !late;
      rss := run.rss_mb :: !rss;
      (match Daemon.finish daemon with [] -> () | _ -> fail t "frames after the stats reply");
      Speed.sample speed;
      let hits = t.hits and computed = t.computed in
      let origin = Array.init n Fun.id in
      check t fp ~reqs ~origin ~heft run;
      if t.hits <> hits || t.computed - computed <> n then
        fail t (Printf.sprintf "burst %d: a unique request was served from the cache" b);
      if b = 0 && Spans.traced tr then layers := replay tr t ~frames ~reqs ~origin ~run ~due
    done;
    let gc = gc_since gc0 in
    let correct start stop = Speed.correct speed ~start ~stop in
    (* Each burst is measured on its own; the figures are the median
       burst's, since one burst the host slows must not set them. *)
    let per_burst =
      List.map
        (fun (t0, stop, tasks, answered) ->
          timing ~tasks ~wall:(correct t0 stop)
            (Array.to_list (Array.map (fun a -> ms (correct t0 a)) answered)))
        !bursts
    in
    phase_of t
      ~wall:(List.fold_left (fun acc (t0, stop, _, _) -> acc +. correct t0 stop) 0. !bursts)
      ~raw_wall:(List.fold_left (fun acc (t0, stop, _, _) -> acc +. (stop -. t0)) 0. !bursts)
      ~timing:(median_timing per_burst) ~late_ms:!late
      ~tasks:(List.fold_left (fun acc (_, _, tasks, _) -> acc + tasks) 0 !bursts)
        (* Each burst's daemon peaks at one of a few heap sizes, depending
           on where its GC cycle stands when the burst ends; the smallest
           is the footprint the burst needs, and it repeats from run to
           run. *)
      ~rss_mb:(Stats.minimum !rss) ~digest:(hex fp) ~layers:(!layers @ gc) ~tracer:tr
      ~notes:[ "daemon VmHWM per burst (MB): " ^ String.concat ", " (List.rev_map (Printf.sprintf "%.1f") !rss) ]
  in
  let plain, traced = run_phases cfg phase in
  result ~workload:"serve-burst" ~speed ~setup_times ~dag_tr ~plain ~traced ~checks:[]
