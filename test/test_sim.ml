(* Tests for the schedule representation, the discrete-event memory trace and
   the validity oracle, anchored on the paper's worked example (Figures 2-4:
   schedule s1 and the memory usages computed in SS 3.2). *)

open Helpers

let dex = Toy.dex ()
let plat ~mb ~mr = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:mb ~m_red:mr

(* Schedule s1 of Figure 3: T1, T3, T4 on the red processor, T2 on the blue
   one; transfers (T1,T2) at time 1 and (T2,T4) at time 4. *)
let s1 () =
  let s = Schedule.create dex in
  s.Schedule.starts.(0) <- 0.;
  s.Schedule.starts.(1) <- 2.;
  s.Schedule.starts.(2) <- 1.;
  s.Schedule.starts.(3) <- 5.;
  s.Schedule.procs.(0) <- 1;
  s.Schedule.procs.(1) <- 0;
  s.Schedule.procs.(2) <- 1;
  s.Schedule.procs.(3) <- 1;
  (match Dag.find_edge dex ~src:0 ~dst:1 with
  | Some e -> s.Schedule.comm_starts.(e.Dag.eid) <- Some 1.
  | None -> assert false);
  (match Dag.find_edge dex ~src:1 ~dst:3 with
  | Some e -> s.Schedule.comm_starts.(e.Dag.eid) <- Some 4.
  | None -> assert false);
  s

(* ----------------------------------------------------------- schedule --- *)

let test_memory_of () =
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  check_bool "T1 red" true (Schedule.memory_of p s 0 = Platform.Red);
  check_bool "T2 blue" true (Schedule.memory_of p s 1 = Platform.Blue)

let test_durations () =
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  check_float "T1 red duration" 1. (Schedule.duration dex p s 0);
  check_float "T3 red duration" 3. (Schedule.duration dex p s 2);
  check_float "T1 finish" 1. (Schedule.finish dex p s 0);
  check_float "makespan" 6. (Schedule.makespan dex p s)

let test_cut_edges () =
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  let e01 = Option.get (Dag.find_edge dex ~src:0 ~dst:1) in
  let e02 = Option.get (Dag.find_edge dex ~src:0 ~dst:2) in
  check_bool "T1->T2 cut" true (Schedule.is_cut p s e01);
  check_bool "T1->T3 same memory" false (Schedule.is_cut p s e02);
  check_float "cut comm duration" 1. (Schedule.comm_duration p s e01);
  check_float "same-mem comm duration" 0. (Schedule.comm_duration p s e02);
  check_float "cut comm finish" 2. (Schedule.comm_finish dex p s e01);
  check_float "same-mem available at producer finish" 1. (Schedule.comm_finish dex p s e02)

let test_tasks_of_proc () =
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  Alcotest.(check (list int)) "red proc order" [ 0; 2; 3 ] (Schedule.tasks_of_proc dex p s 1);
  Alcotest.(check (list int)) "blue proc" [ 1 ] (Schedule.tasks_of_proc dex p s 0)

(* ------------------------------------------------------------- events --- *)

let test_memory_usage_paper_values () =
  (* SS 3.2: RedMemUsed(T1)=3, BlueMemUsed(T2)=2, RedMemUsed(T3)=5,
     RedMemUsed(T4)=3. *)
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  check_float "T1" 3. (Events.usage_at_task_start dex p s 0);
  check_float "T2" 2. (Events.usage_at_task_start dex p s 1);
  check_float "T3" 5. (Events.usage_at_task_start dex p s 2);
  check_float "T4" 3. (Events.usage_at_task_start dex p s 3)

let test_memory_peaks_paper () =
  (* M^s1_blue = 2 and M^s1_red = 5. *)
  let p = plat ~mb:5. ~mr:5. in
  let pb, pr = Events.peaks dex p (s1 ()) in
  check_float "blue peak" 2. pb;
  check_float "red peak" 5. pr

let test_trace_shape () =
  let p = plat ~mb:5. ~mr:5. in
  let trace = Events.memory_trace dex p (s1 ()) in
  let times = trace.Events.times in
  check_float "starts at 0" 0. times.(0);
  let sorted = ref true in
  for k = 0 to Array.length times - 2 do
    if times.(k) >= times.(k + 1) then sorted := false
  done;
  check_bool "strictly increasing" true !sorted;
  Array.iter (fun u -> check_bool "non-negative blue" true (u >= -1e-9)) trace.Events.blue;
  Array.iter (fun u -> check_bool "non-negative red" true (u >= -1e-9)) trace.Events.red;
  check_float "all memory released at the end" 0.
    (trace.Events.blue.(Array.length times - 1) +. trace.Events.red.(Array.length times - 1))

let test_usage_at_interpolation () =
  let p = plat ~mb:5. ~mr:5. in
  let trace = Events.memory_trace dex p (s1 ()) in
  (* Red holds F12+F13 = 3 during (0,1). *)
  check_float "mid-step" 3. (Events.usage_at trace Platform.Red 0.5);
  (* During the transfer (T2,T4) on [4,5) the file is in both memories. *)
  check_float "double residency red" 3. (Events.usage_at trace Platform.Red 4.5)

(* T1 (red, out size 3) starts at NaN: both trace paths reject its start
   allocation with the same message. *)
let test_nan_start_rejected () =
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  s.Schedule.starts.(0) <- Float.nan;
  let nan_time = Invalid_argument "Events.memory_trace: NaN time" in
  Alcotest.check_raises "flat" nan_time (fun () -> ignore (Events.memory_trace dex p s));
  Alcotest.check_raises "reference" nan_time (fun () ->
      ignore (Events.memory_trace_reference dex p s))

(* ---------------------------------------------------------- validator --- *)

let test_validator_accepts_s1 () =
  let p = plat ~mb:5. ~mr:5. in
  let r = validate_ok dex p (s1 ()) in
  check_float "makespan" 6. r.Validator.makespan;
  check_float "peak blue" 2. r.Validator.peak_blue;
  check_float "peak red" 5. r.Validator.peak_red

let test_validator_rejects_memory () =
  let p = plat ~mb:5. ~mr:4. in
  match Validator.validate dex p (s1 ()) with
  | Ok _ -> Alcotest.fail "should exceed red memory"
  | Error errs ->
    check_bool "mentions red memory" true
      (List.exists (fun e -> String.length e >= 3 && String.sub e 0 3 = "red") errs)

let test_validator_rejects_overlap () =
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  s.Schedule.starts.(2) <- 0.5 (* T3 now overlaps T1 on the red processor *);
  check_bool "overlap detected" true (Result.is_error (Validator.validate dex p s))

let test_validator_rejects_missing_comm () =
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  let e = Option.get (Dag.find_edge dex ~src:0 ~dst:1) in
  s.Schedule.comm_starts.(e.Dag.eid) <- None;
  check_bool "missing transfer" true (Result.is_error (Validator.validate dex p s))

let test_validator_rejects_spurious_comm () =
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  let e = Option.get (Dag.find_edge dex ~src:0 ~dst:2) in
  s.Schedule.comm_starts.(e.Dag.eid) <- Some 1. (* same-memory edge *);
  check_bool "spurious transfer" true (Result.is_error (Validator.validate dex p s))

let test_validator_rejects_late_comm () =
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  let e = Option.get (Dag.find_edge dex ~src:0 ~dst:1) in
  s.Schedule.comm_starts.(e.Dag.eid) <- Some 1.5 (* ends after T2 starts at 2 *);
  check_bool "late transfer" true (Result.is_error (Validator.validate dex p s))

let test_validator_rejects_early_comm () =
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  let e = Option.get (Dag.find_edge dex ~src:0 ~dst:1) in
  s.Schedule.comm_starts.(e.Dag.eid) <- Some 0.5 (* before T1 finishes at 1 *);
  check_bool "early transfer" true (Result.is_error (Validator.validate dex p s))

let test_validator_rejects_precedence () =
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  s.Schedule.starts.(3) <- 2. (* T4 before its same-memory parent T3 ends at 4 *);
  check_bool "precedence violated" true (Result.is_error (Validator.validate dex p s))

let test_validator_rejects_bad_proc () =
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  s.Schedule.procs.(0) <- 9;
  check_bool "processor range" true (Result.is_error (Validator.validate dex p s))

let test_validator_rejects_negative_start () =
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  s.Schedule.starts.(0) <- -1.;
  check_bool "negative start" true (Result.is_error (Validator.validate dex p s))

let test_validator_zero_duration_share_instant () =
  (* A zero-duration task may legally share its start instant with a longer
     task on the same processor (broadcast relays do this constantly). *)
  let g = build_dag ~tasks:[ ("a", 0., 0.); ("c", 2., 2.) ] ~edges:[] in
  let p = plat ~mb:5. ~mr:5. in
  let s = Schedule.create g in
  (* both on blue proc 0, both starting at 0; relay has zero duration *)
  ignore (validate_ok g p s);
  check_float "makespan from long task" 2. (Schedule.makespan g p s)

let test_validate_exn () =
  let p = plat ~mb:5. ~mr:4. in
  Alcotest.check_raises "raises on invalid"
    (Failure "red memory: usage 5 exceeds capacity 4 at time 1") (fun () ->
      ignore (Validator.validate_exn dex p (s1 ())))

(* -------------------------------------------------------------- gantt --- *)

let contains sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ----------------------------------------------------------- mutation --- *)

(* Mutation testing of the oracle itself: take a known-valid MemHEFT
   schedule, apply one corruption per defect class, and demand rejection
   with the matching message — proving the validator can actually fail, not
   just that it accepts everything it is shown. *)

let mutation_fixture () =
  let g = dag_of_seed ~size:14 3 in
  let unbounded = platform infinity in
  let _, (pb, pr) = Heuristics.heft_measured g unbounded in
  let p = platform (max pb pr) in
  match Heuristics.memheft g p with
  | Error _ -> Alcotest.fail "fixture must be feasible at HEFT's measured peak"
  | Ok s ->
    ignore (validate_ok g p s);
    (g, p, s)

let copy_sched (s : Schedule.t) =
  {
    Schedule.starts = Array.copy s.Schedule.starts;
    procs = Array.copy s.Schedule.procs;
    comm_starts = Array.copy s.Schedule.comm_starts;
  }

let expect_rejection name msg g p s =
  match Validator.validate g p s with
  | Ok _ -> Alcotest.failf "%s: corrupted schedule accepted" name
  | Error errs ->
    if not (List.exists (contains msg) errs) then
      Alcotest.failf "%s: no error matching %S in:\n%s" name msg (String.concat "\n" errs)

let find_edge_where g p s want_cut =
  match
    List.find_opt (fun e -> Schedule.is_cut p s e = want_cut) (Array.to_list (Dag.edges g))
  with
  | Some e -> e
  | None -> Alcotest.failf "fixture has no %s edge" (if want_cut then "cut" else "same-memory")

let test_mutation_overlap () =
  let g, p, s = mutation_fixture () in
  let s' = copy_sched s in
  (* Move some task onto another task's processor at the same start. *)
  let victim, target =
    let pairs = ref None in
    for i = 0 to Dag.n_tasks g - 1 do
      for j = 0 to Dag.n_tasks g - 1 do
        if
          !pairs = None && i <> j
          && Schedule.duration g p s i > 0.
          && Schedule.duration g p s j > 0.
          && Schedule.memory_of p s i = Schedule.memory_of p s j
        then pairs := Some (i, j)
      done
    done;
    Option.get !pairs
  in
  s'.Schedule.procs.(victim) <- s'.Schedule.procs.(target);
  s'.Schedule.starts.(victim) <- s'.Schedule.starts.(target);
  expect_rejection "overlap" "overlap" g p s'

let test_mutation_dropped_transfer () =
  let g, p, s = mutation_fixture () in
  let e = find_edge_where g p s true in
  let s' = copy_sched s in
  s'.Schedule.comm_starts.(e.Dag.eid) <- None;
  expect_rejection "dropped transfer" "cut edge without a transfer" g p s'

let test_mutation_spurious_transfer () =
  let g, p, s = mutation_fixture () in
  let e = find_edge_where g p s false in
  let s' = copy_sched s in
  s'.Schedule.comm_starts.(e.Dag.eid) <- Some s'.Schedule.starts.(e.Dag.dst);
  expect_rejection "spurious transfer" "spurious transfer" g p s'

let test_mutation_flow_violation () =
  let g, p, s = mutation_fixture () in
  (* Start a consumer strictly before one of its producers finishes. *)
  let e =
    match
      List.find_opt
        (fun (e : Dag.edge) -> Schedule.duration g p s e.Dag.src > 0.)
        (Array.to_list (Dag.edges g))
    with
    | Some e -> e
    | None -> Alcotest.fail "fixture has no positive-duration producer"
  in
  let s' = copy_sched s in
  s'.Schedule.starts.(e.Dag.dst) <- s'.Schedule.starts.(e.Dag.src);
  expect_rejection "flow violation" "before producer finishes" g p s'

let test_mutation_memory_overrun () =
  let g, p, s = mutation_fixture () in
  let r = validate_ok g p s in
  let squeeze = 0.5 *. max r.Validator.peak_blue r.Validator.peak_red in
  let tight = Platform.with_bounds p ~m_blue:squeeze ~m_red:squeeze in
  expect_rejection "memory overrun" "exceeds capacity" g tight s

let test_mutation_out_of_range () =
  let g, p, s = mutation_fixture () in
  let s' = copy_sched s in
  s'.Schedule.procs.(0) <- Platform.n_procs p;
  expect_rejection "out of range" "out of range" g p s';
  let s'' = copy_sched s in
  s''.Schedule.starts.(0) <- -1.;
  expect_rejection "negative start" "negative start" g p s''

let test_gantt_render () =
  let p = plat ~mb:5. ~mr:5. in
  let out = Gantt.render ~width:40 dex p (s1 ()) in
  check_bool "shows makespan" true (contains "makespan = 6" out);
  check_bool "shows lanes" true (contains "P0" out && contains "P1" out);
  check_bool "shows memory peaks" true (contains "peak=5" out)

let test_gantt_memory_profile () =
  let p = plat ~mb:5. ~mr:5. in
  let out = Gantt.render_memory_profile ~width:40 dex p (s1 ()) in
  check_bool "two lanes" true (contains "blue" out && contains "red" out)

(* -------------------------------------------------------- serialisation --- *)

let test_schedule_io_roundtrip () =
  let s = s1 () in
  let s' = Schedule_io.of_string dex (Schedule_io.to_string s) in
  Alcotest.(check (array (float 1e-12))) "starts" s.Schedule.starts s'.Schedule.starts;
  Alcotest.(check (array int)) "procs" s.Schedule.procs s'.Schedule.procs;
  for e = 0 to Dag.n_edges dex - 1 do
    Alcotest.(check (option (float 1e-12))) "comm" s.Schedule.comm_starts.(e) s'.Schedule.comm_starts.(e)
  done

let test_schedule_io_file_roundtrip () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "memsched_s1.sched" in
  Schedule_io.write (s1 ()) path;
  let s' = Schedule_io.read dex path in
  let p = plat ~mb:5. ~mr:5. in
  let r = validate_ok dex p s' in
  check_float "still valid after roundtrip" 6. r.Validator.makespan

let test_schedule_io_errors () =
  let bad text = try ignore (Schedule_io.of_string dex text); false with Invalid_argument _ -> true in
  check_bool "empty" true (bad "");
  check_bool "bad header" true (bad "nope");
  check_bool "wrong task count" true (bad "schedule 2 0\ntask 0 0 0\ntask 1 0 0\n");
  check_bool "missing comm" true (bad "schedule 4 1\ntask 0 0 0\ntask 1 0 0\ntask 2 0 0\ntask 3 0 0\n");
  check_bool "bad edge id" true
    (bad "schedule 4 1\ntask 0 0 0\ntask 1 0 0\ntask 2 0 0\ntask 3 0 0\ncomm 9 1\n")

(* ---------------------------------------------------------------- stats --- *)

let test_sched_stats () =
  let p = plat ~mb:5. ~mr:5. in
  let st = Sched_stats.compute dex p (s1 ()) in
  check_float "makespan" 6. st.Sched_stats.makespan;
  (* durations: T1 red 1, T2 blue 2, T3 red 3, T4 red 1 *)
  check_float "total work" 7. st.Sched_stats.total_work;
  check_int "transfers" 2 st.Sched_stats.n_transfers;
  check_float "volume" 2. st.Sched_stats.transfer_volume;
  check_int "blue tasks" 1 st.Sched_stats.tasks_on_blue;
  check_int "red tasks" 3 st.Sched_stats.tasks_on_red;
  check_float "peak blue" 2. st.Sched_stats.peak_blue;
  (match st.Sched_stats.per_proc with
  | [ p0; p1 ] ->
    check_float "proc0 busy" 2. p0.Sched_stats.busy;
    check_float "proc1 busy" 5. p1.Sched_stats.busy;
    check_float "proc1 idle" 1. p1.Sched_stats.idle
  | _ -> Alcotest.fail "two processors expected");
  (* mean utilisation = (2 + 5) / (2 * 6) *)
  check_float_eps 1e-9 "utilisation" (7. /. 12.) st.Sched_stats.mean_utilisation

let test_sched_stats_pp () =
  let p = plat ~mb:5. ~mr:5. in
  let st = Sched_stats.compute dex p (s1 ()) in
  check_bool "prints" true (String.length (Format.asprintf "%a" Sched_stats.pp st) > 0)

(* ---------------------------------------------------------- flat parity --- *)

(* The flat verification pipeline (PR 10) must be bit-identical to the
   verbatim pre-flattening implementations kept as *_reference: validator
   reports including message order, the trace arrays, every stats field —
   and the parallel validator must match the serial one for any --jobs. *)

let report_equal a b =
  match (a, b) with
  | Ok (ra : Validator.report), Ok (rb : Validator.report) ->
    Float.compare ra.Validator.makespan rb.Validator.makespan = 0
    && Float.compare ra.Validator.peak_blue rb.Validator.peak_blue = 0
    && Float.compare ra.Validator.peak_red rb.Validator.peak_red = 0
  | Error ea, Error eb -> List.equal String.equal ea eb
  | _ -> false

let float_arrays_equal a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> Float.compare x y = 0) a b

let parity_fixture seed =
  let g = dag_of_seed ~size:16 seed in
  let p = platform infinity in
  match Heuristics.memheft g p with
  | Ok s -> (g, p, s)
  | Error _ -> Alcotest.fail "memheft infeasible on an unbounded platform"

(* The tiled families the parity tests also run on, once each: HEFT
   schedules checked at HEFT's own measured peaks, so the whole pipeline
   runs to an Ok verdict.  The first three have a few hundred tasks, so
   every sort in them takes the comparison path; lu-24 (13,525 tasks) and
   random-5000 are above [Radix.comparison_cutoff] in tasks and in events,
   so they take the radix path. *)
let tiled_fixtures =
  lazy
    (List.map
       (fun (family, g, platform) ->
         let s, (pb, pr) = Heuristics.heft_measured g platform in
         (family, (g, Platform.with_bounds platform ~m_blue:pb ~m_red:pr, s)))
       [ ("random-300", List.hd (Workloads.large_rand_set ~count:1 ~size:300 ()),
          Workloads.platform_random);
         ("lu-8", Workloads.lu ~n:8 (), Workloads.platform_mirage);
         ("cholesky-8", Workloads.cholesky ~n:8 (), Workloads.platform_mirage);
         ("lu-24", Workloads.lu ~n:24 (), Workloads.platform_mirage);
         ("random-5000", List.hd (Workloads.large_rand_set ~count:1 ~size:5000 ()),
          Workloads.platform_random) ])

let tiled_fixture family = List.assoc family (Lazy.force tiled_fixtures)

let test_large_fixtures_take_radix () =
  List.iter
    (fun family ->
      let g, p, s = tiled_fixture family in
      let steps = Events.memory_trace_into (Events.scratch ()) g p s in
      (* [steps] is at most the event count plus one. *)
      check_bool (family ^ ": tasks above the cutoff") true
        (Dag.n_tasks g >= Radix.comparison_cutoff);
      check_bool (family ^ ": events above the cutoff") true (steps > Radix.comparison_cutoff))
    [ "lu-24"; "random-5000" ]

(* A warm-scratch trace allocates nothing per event on the minor heap: a
   sort that went polymorphic would box every float it moves, at hundreds
   of words per task. *)
let test_trace_alloc_budget () =
  let g, p, s = tiled_fixture "lu-24" in
  let sc = Events.scratch () in
  ignore (Events.memory_trace_into sc g p s);
  let w0 = Gc.minor_words () in
  ignore (Events.memory_trace_into sc g p s);
  let per_task = (Gc.minor_words () -. w0) /. float_of_int (Dag.n_tasks g) in
  check_bool (Printf.sprintf "%.2f minor words per task <= 40" per_task) true (per_task <= 40.)

(* [prop] on every tiled fixture, then on [count] fuzzed ones. *)
let parity_qtest ~count name prop =
  let label, speed, run = qtest ~count name seed_arb (fun seed -> prop (parity_fixture seed)) in
  ( label,
    speed,
    fun () ->
      List.iter
        (fun (family, fixture) ->
          if not (prop fixture) then Alcotest.failf "%s: fails on %s" name family)
        (Lazy.force tiled_fixtures);
      run () )

let test_validator_parity =
  parity_qtest ~count:120 "flat validator equals reference (incl. corrupted schedules)"
    (fun (g, p, s) ->
      let agree s = report_equal (Validator.validate g p s) (Validator.validate_reference g p s) in
      let corrupt f =
        let s' = copy_sched s in
        f s';
        s'
      in
      agree s
      && agree (corrupt (fun s' -> s'.Schedule.starts.(0) <- -1.))
      && agree (corrupt (fun s' -> s'.Schedule.procs.(0) <- Platform.n_procs p))
      && agree
           (corrupt (fun s' ->
                Array.fill s'.Schedule.starts 0 (Array.length s'.Schedule.starts) 0.;
                Array.fill s'.Schedule.procs 0 (Array.length s'.Schedule.procs) 0;
                Array.fill s'.Schedule.comm_starts 0 (Array.length s'.Schedule.comm_starts) None)))

let test_trace_parity =
  parity_qtest ~count:200 "flat memory trace equals reference bit-for-bit"
    (fun (g, p, s) ->
      let a = Events.memory_trace g p s and b = Events.memory_trace_reference g p s in
      float_arrays_equal a.Events.times b.Events.times
      && float_arrays_equal a.Events.blue b.Events.blue
      && float_arrays_equal a.Events.red b.Events.red)

let stats_equal (a : Sched_stats.t) (b : Sched_stats.t) =
  let per_proc_equal (x : Sched_stats.per_proc) (y : Sched_stats.per_proc) =
    x.Sched_stats.proc = y.Sched_stats.proc
    && x.Sched_stats.memory = y.Sched_stats.memory
    && x.Sched_stats.n_tasks = y.Sched_stats.n_tasks
    && Float.compare x.Sched_stats.busy y.Sched_stats.busy = 0
    && Float.compare x.Sched_stats.idle y.Sched_stats.idle = 0
  in
  Float.compare a.Sched_stats.makespan b.Sched_stats.makespan = 0
  && Float.compare a.Sched_stats.total_work b.Sched_stats.total_work = 0
  && List.equal per_proc_equal a.Sched_stats.per_proc b.Sched_stats.per_proc
  && Float.compare a.Sched_stats.mean_utilisation b.Sched_stats.mean_utilisation = 0
  && a.Sched_stats.n_transfers = b.Sched_stats.n_transfers
  && Float.compare a.Sched_stats.transfer_volume b.Sched_stats.transfer_volume = 0
  && Float.compare a.Sched_stats.transfer_time b.Sched_stats.transfer_time = 0
  && Float.compare a.Sched_stats.peak_blue b.Sched_stats.peak_blue = 0
  && Float.compare a.Sched_stats.peak_red b.Sched_stats.peak_red = 0
  && Float.compare a.Sched_stats.avg_blue b.Sched_stats.avg_blue = 0
  && Float.compare a.Sched_stats.avg_red b.Sched_stats.avg_red = 0
  && a.Sched_stats.tasks_on_blue = b.Sched_stats.tasks_on_blue
  && a.Sched_stats.tasks_on_red = b.Sched_stats.tasks_on_red

let test_stats_parity =
  parity_qtest ~count:200 "flat stats equal reference on every field"
    (fun (g, p, s) ->
      stats_equal (Sched_stats.compute g p s) (Sched_stats.compute_reference g p s))

let test_scratch_reuse =
  (* One scratch reused across differently-sized instances (and a corrupted
     schedule in between) must give the same results as fresh computation:
     stale buffer contents from an earlier, larger trace must never leak
     into a later one. *)
  qtest ~count:120 "scratch reuse across instances equals fresh computation" seed_arb
    (fun seed ->
      let sc = Events.scratch () in
      let check seed' =
        let g, p, s = parity_fixture seed' in
        let trace_ok =
          let a = Events.memory_trace ~scratch:sc g p s in
          let b = Events.memory_trace g p s in
          float_arrays_equal a.Events.times b.Events.times
          && float_arrays_equal a.Events.blue b.Events.blue
          && float_arrays_equal a.Events.red b.Events.red
        in
        let validate_ok =
          report_equal (Validator.validate ~scratch:sc g p s) (Validator.validate g p s)
        in
        let bad = copy_sched s in
        bad.Schedule.starts.(0) <- -1.;
        let corrupted_ok =
          report_equal (Validator.validate ~scratch:sc g p bad) (Validator.validate g p bad)
        in
        let stats_ok =
          stats_equal (Sched_stats.compute ~scratch:sc g p s) (Sched_stats.compute g p s)
        in
        trace_ok && validate_ok && corrupted_ok && stats_ok
      in
      (* Three instances through the same scratch, sizes varying with seed. *)
      check seed && check (seed lxor 0x5bd1) && check (seed + 17))

let test_tasks_by_proc_parity =
  parity_qtest ~count:200 "tasks_by_proc groups equal tasks_of_proc on every processor"
    (fun (g, p, s) ->
      let off, order = Schedule.tasks_by_proc g p s in
      let ok = ref (off.(0) = 0 && off.(Platform.n_procs p) = Dag.n_tasks g) in
      for q = 0 to Platform.n_procs p - 1 do
        let grouped = Array.to_list (Array.sub order off.(q) (off.(q + 1) - off.(q))) in
        if grouped <> Schedule.tasks_of_proc g p s q then ok := false
      done;
      !ok)

let test_tasks_by_proc_zero_duration_ties () =
  (* Fully-tied zero-duration tasks must stay in ascending-id order, exactly
     as [tasks_of_proc]'s stable sort leaves them. *)
  let g = build_dag ~tasks:[ ("a", 0., 0.); ("b", 2., 2.); ("c", 0., 0.) ] ~edges:[] in
  let p = plat ~mb:5. ~mr:5. in
  let s = Schedule.create g in
  let off, order = Schedule.tasks_by_proc g p s in
  check_int "all on proc 0" 3 (off.(1) - off.(0));
  Alcotest.(check (list int)) "zero-duration ties first, by id" [ 0; 2; 1 ]
    (Array.to_list (Array.sub order 0 3));
  Alcotest.(check (list int)) "matches tasks_of_proc" (Schedule.tasks_of_proc g p s 0)
    (Array.to_list (Array.sub order 0 3))

let test_tasks_by_proc_rejects_bad_proc () =
  let p = plat ~mb:5. ~mr:5. in
  let s = s1 () in
  s.Schedule.procs.(0) <- 9;
  Alcotest.check_raises "out of range"
    (Invalid_argument "Schedule.tasks_by_proc: processor index out of range") (fun () ->
      ignore (Schedule.tasks_by_proc dex p s))

let test_validator_jobs_parity () =
  let g = dag_of_seed ~size:40 11 in
  let p = platform infinity in
  let s =
    match Heuristics.memheft g p with
    | Ok s -> s
    | Error _ -> Alcotest.fail "memheft infeasible on an unbounded platform"
  in
  (* Collapse everything onto processor 0 to plant errors in several shards. *)
  Array.fill s.Schedule.starts 0 (Array.length s.Schedule.starts) 0.;
  Array.fill s.Schedule.procs 0 (Array.length s.Schedule.procs) 0;
  Array.fill s.Schedule.comm_starts 0 (Array.length s.Schedule.comm_starts) None;
  let serial = Validator.validate g p s in
  (match serial with
  | Ok _ -> Alcotest.fail "collapsed schedule accepted"
  | Error errs -> check_bool "several errors planted" true (List.length errs > 1));
  List.iter
    (fun jobs ->
      let pooled = Par.with_pool ~jobs (fun pool -> Validator.validate ~pool g p s) in
      check_bool (Printf.sprintf "jobs=%d report identical" jobs) true (report_equal serial pooled))
    [ 1; 2; 8 ]

(* --------------------------------------------------- heuristic schedules
   are also exercised against the oracle in test_heuristics; here we only
   pin the paper example. *)

let () =
  Alcotest.run "sim"
    [ ( "schedule",
        [ Alcotest.test_case "memory_of" `Quick test_memory_of;
          Alcotest.test_case "durations" `Quick test_durations;
          Alcotest.test_case "cut edges" `Quick test_cut_edges;
          Alcotest.test_case "tasks_of_proc" `Quick test_tasks_of_proc ] );
      ( "events",
        [ Alcotest.test_case "paper usage values" `Quick test_memory_usage_paper_values;
          Alcotest.test_case "paper peaks" `Quick test_memory_peaks_paper;
          Alcotest.test_case "trace shape" `Quick test_trace_shape;
          Alcotest.test_case "usage_at" `Quick test_usage_at_interpolation;
          Alcotest.test_case "NaN start rejected by both paths" `Quick test_nan_start_rejected ] );
      ( "validator",
        [ Alcotest.test_case "accepts s1" `Quick test_validator_accepts_s1;
          Alcotest.test_case "rejects memory overflow" `Quick test_validator_rejects_memory;
          Alcotest.test_case "rejects overlap" `Quick test_validator_rejects_overlap;
          Alcotest.test_case "rejects missing transfer" `Quick test_validator_rejects_missing_comm;
          Alcotest.test_case "rejects spurious transfer" `Quick test_validator_rejects_spurious_comm;
          Alcotest.test_case "rejects late transfer" `Quick test_validator_rejects_late_comm;
          Alcotest.test_case "rejects early transfer" `Quick test_validator_rejects_early_comm;
          Alcotest.test_case "rejects precedence violation" `Quick test_validator_rejects_precedence;
          Alcotest.test_case "rejects bad processor" `Quick test_validator_rejects_bad_proc;
          Alcotest.test_case "rejects negative start" `Quick test_validator_rejects_negative_start;
          Alcotest.test_case "zero-duration tasks share instants" `Quick
            test_validator_zero_duration_share_instant;
          Alcotest.test_case "validate_exn" `Quick test_validate_exn ] );
      ( "mutation",
        [ Alcotest.test_case "processor overlap" `Quick test_mutation_overlap;
          Alcotest.test_case "dropped transfer" `Quick test_mutation_dropped_transfer;
          Alcotest.test_case "spurious transfer" `Quick test_mutation_spurious_transfer;
          Alcotest.test_case "flow violation" `Quick test_mutation_flow_violation;
          Alcotest.test_case "memory overrun" `Quick test_mutation_memory_overrun;
          Alcotest.test_case "index out of range" `Quick test_mutation_out_of_range ] );
      ( "serialisation",
        [ Alcotest.test_case "string roundtrip" `Quick test_schedule_io_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_schedule_io_file_roundtrip;
          Alcotest.test_case "errors" `Quick test_schedule_io_errors ] );
      ( "stats",
        [ Alcotest.test_case "paper example" `Quick test_sched_stats;
          Alcotest.test_case "pp" `Quick test_sched_stats_pp ] );
      ( "flat-parity",
        [ test_validator_parity;
          test_trace_parity;
          test_stats_parity;
          test_scratch_reuse;
          test_tasks_by_proc_parity;
          Alcotest.test_case "large fixtures take the radix path" `Quick
            test_large_fixtures_take_radix;
          Alcotest.test_case "warm trace allocation budget" `Quick test_trace_alloc_budget;
          Alcotest.test_case "zero-duration ties" `Quick test_tasks_by_proc_zero_duration_ties;
          Alcotest.test_case "bad processor rejected" `Quick test_tasks_by_proc_rejects_bad_proc;
          Alcotest.test_case "jobs 1/2/8 parity" `Quick test_validator_jobs_parity ] );
      ( "gantt",
        [ Alcotest.test_case "render" `Quick test_gantt_render;
          Alcotest.test_case "memory profile" `Quick test_gantt_memory_profile ] ) ]
