(* Tests for the paper's heuristics: upward ranks, the EST machinery, the
   four schedulers, and the makespan lower bounds.  Hard guarantees
   (schedule validity, bound compliance) are property-tested through the
   Validator oracle on random DAGs. *)

open Helpers

let dex = Toy.dex ()
let dex_platform ~m = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:m ~m_red:m

(* The pool numbers of the dual-memory platform. *)
let blue = 0
let red = 1

(* --------------------------------------------------------------- ranks --- *)

let test_ranks_dex () =
  (* rank(T4) = 1; rank(T2) = 2 + (1 + 1/2) = 3.5; rank(T3) = 4.5 + 1.5 = 6;
     rank(T1) = 2 + max(4, 6.5) = 8.5. *)
  let r = Rank.upward_ranks dex in
  check_float "T4" 1. r.(3);
  check_float "T2" 3.5 r.(1);
  check_float "T3" 6. r.(2);
  check_float "T1" 8.5 r.(0)

let test_priority_list_dex () =
  Alcotest.(check (array int)) "rank order" [| 0; 2; 1; 3 |] (Rank.priority_list dex)

let test_priority_list_random_ties () =
  (* Equal-rank tasks: random tie-breaking must still produce a valid
     priority permutation. *)
  let g = Toy.independent ~n:6 ~w_blue:2. ~w_red:2. in
  let order = Rank.priority_list ~rng:(Rng.create 3) g in
  Alcotest.(check (list int)) "permutation" [ 0; 1; 2; 3; 4; 5 ]
    (List.sort compare (Array.to_list order))

(* The priority order as one comparison sort — decreasing rank, then
   jitter, then id — which the chain of stable sorts must reproduce. *)
let priority_list_by_comparison ?seed g =
  let ranks = Rank.upward_ranks g in
  let n = Dag.n_tasks g in
  let jitter =
    match seed with
    | Some seed ->
      let rng = Rng.create seed in
      Array.init n (fun _ -> Rng.float rng 1.)
    | None -> Array.make n 0.
  in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare ranks.(b) ranks.(a) in
      if c <> 0 then c
      else
        let c = Float.compare jitter.(a) jitter.(b) in
        if c <> 0 then c else Int.compare a b)
    order;
  order

(* Above the radix cutoff: a 13.5k-task LU (many equal ranks across a
   tile row), a 5000-task random DAG, and independent tasks whose ranks
   all tie, so the order is the jitter's or the ids'. *)
let large_rank_fixtures =
  lazy
    [ ("lu-24", Lu.generate ~n:24 ());
      ("random-5000", List.hd (Workloads.large_rand_set ~count:1 ~size:5000 ()));
      ("independent", Toy.independent ~n:(2 * Radix.comparison_cutoff) ~w_blue:2. ~w_red:2.) ]

let test_priority_list_large () =
  List.iter
    (fun (family, g) ->
      check_bool (family ^ ": above the cutoff") true (Dag.n_tasks g >= Radix.comparison_cutoff);
      Alcotest.(check (array int))
        (family ^ ": no rng") (priority_list_by_comparison g) (Rank.priority_list g);
      List.iter
        (fun seed ->
          Alcotest.(check (array int))
            (Printf.sprintf "%s: rng seed %d" family seed)
            (priority_list_by_comparison ~seed g)
            (Rank.priority_list ~rng:(Rng.create seed) g))
        [ 1; 2; 3 ])
    (Lazy.force large_rank_fixtures)

(* The priority list allocates nothing per task on the minor heap beyond
   the jitter draws themselves: a sort that went polymorphic would box
   every key it reads. *)
let test_priority_list_alloc_budget () =
  let g = List.assoc "lu-24" (Lazy.force large_rank_fixtures) in
  let ranks = Rank.upward_ranks g in
  let n = Dag.n_tasks g in
  let per_task f =
    let w0 = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let plain = per_task (fun () -> ignore (Rank.priority_list ~ranks g)) in
  check_bool (Printf.sprintf "no rng: %.2f minor words per task <= 1" plain) true (plain <= 1.);
  let draws =
    per_task (fun () ->
        let rng = Rng.create 5 and a = Array.create_float n in
        for i = 0 to n - 1 do
          a.(i) <- Rng.float rng 1.
        done)
  in
  let jittered = per_task (fun () -> ignore (Rank.priority_list ~rng:(Rng.create 5) ~ranks g)) in
  check_bool
    (Printf.sprintf "rng: %.2f minor words per task <= %.2f (draws) + 1" jittered draws)
    true
    (jittered <= draws +. 1.)

let ranks_dominate_children =
  qtest "rank(parent) > rank(child) when durations are positive" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let r = Rank.upward_ranks g in
      Array.for_all (fun (e : Dag.edge) -> r.(e.Dag.src) > r.(e.Dag.dst)) (Dag.edges g))

(* --------------------------------------------------------- sched_state --- *)

(* Two tasks across memories: A on blue, then estimate/commit B on red. *)
let ab_graph () = build_dag ~tasks:[ ("A", 2., 2.); ("B", 2., 2.) ] ~edges:[ (0, 1, 3., 1.) ]

(* Task [i] on pool [q] from one probe with zero floors; [None] when the
   task is not ready or the pool does not fit. *)
let estimate st i q =
  let zero_floors = Array.make (Dag.n_tasks (Sched_state.graph st)) 0. in
  if Sched_state.probe st ~not_before:zero_floors i >= 0 && Sched_state.probe_fits st q then
    Some (Sched_state.probe_estimate st i q)
  else None

let commit_on st i q =
  match estimate st i q with
  | Some e ->
    Sched_state.commit st e;
    e
  | None -> Alcotest.failf "estimate for task %d should be feasible" i

let test_estimate_cross_memory () =
  let g = ab_graph () in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:10. ~m_red:10. in
  let st = Sched_state.create g p in
  check_bool "A ready" true (Sched_state.is_ready st 0);
  check_bool "B not ready" false (Sched_state.is_ready st 1);
  let ea = commit_on st 0 blue in
  check_float "A starts immediately" 0. ea.Sched_state.est;
  check_float "A finish recorded" 2. (Sched_state.finish_time st 0);
  (match estimate st 1 red with
  | Some e ->
    (* precedence: AFT(A) + C = 3; transfer occupies [2, 3). *)
    check_float "B EST across memories" 3. e.Sched_state.est;
    check_float "B EFT" 5. e.Sched_state.eft
  | None -> Alcotest.fail "feasible");
  (match estimate st 1 blue with
  | Some e -> check_float "B EST same memory" 2. e.Sched_state.est
  | None -> Alcotest.fail "feasible");
  let _ = commit_on st 1 red in
  let s = Sched_state.schedule st in
  let r = validate_ok g p s in
  check_float "makespan" 5. r.Validator.makespan;
  (* The transfer is emitted just-in-time: starts at 2, ends at B's start. *)
  let e01 = Dag.edge g 0 in
  Alcotest.(check (option (float 1e-9))) "transfer start" (Some 2.)
    s.Schedule.comm_starts.(e01.Dag.eid)

let test_estimate_memory_infeasible () =
  let g = ab_graph () in
  (* Red memory cannot hold the 3-unit incoming file. *)
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:10. ~m_red:2. in
  let st = Sched_state.create g p in
  let _ = commit_on st 0 blue in
  check_bool "red infeasible" true (Option.is_none (estimate st 1 red));
  check_int "falls back to blue" blue
    (Sched_state.probe st ~not_before:(Array.make (Dag.n_tasks g) 0.) 1)

let test_estimate_output_infeasible () =
  let g = ab_graph () in
  (* A's own output (3 units) exceeds both memories: nothing is schedulable. *)
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:2. ~m_red:2. in
  let st = Sched_state.create g p in
  check_bool "blue none" true (Option.is_none (estimate st 0 blue));
  check_bool "red none" true (Option.is_none (estimate st 0 red))

let test_estimate_not_ready () =
  let g = ab_graph () in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:10. ~m_red:10. in
  let st = Sched_state.create g p in
  check_bool "B has unscheduled parent" true (Option.is_none (estimate st 1 blue))

let test_commit_rejects_double () =
  let g = ab_graph () in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:10. ~m_red:10. in
  let st = Sched_state.create g p in
  let e = Option.get (estimate st 0 blue) in
  Sched_state.commit st e;
  Alcotest.check_raises "double commit"
    (Invalid_argument "Sched_state.commit: task already assigned") (fun () ->
      Sched_state.commit st e)

let test_state_copy_isolated () =
  let g = ab_graph () in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:10. ~m_red:10. in
  let st = Sched_state.create g p in
  let _ = commit_on st 0 blue in
  let snap = Sched_state.copy st in
  let _ = commit_on st 1 red in
  check_int "copy frozen" 1 (Sched_state.n_assigned snap);
  check_int "original advanced" 2 (Sched_state.n_assigned st);
  check_bool "copy can continue independently" true
    (Option.is_some (estimate snap 1 blue))

(* A copy shares no mutable state with its source, probe scratch included:
   probing on the copy leaves the source's slots from its own last probe,
   and committing on the copy leaves the source's schedule, ready set and
   staircases as they were. *)
let test_state_copy_shares_nothing () =
  let g =
    build_dag
      ~tasks:[ ("A", 2., 2.); ("B", 2., 2.); ("C", 3., 1.); ("D", 5., 7.) ]
      ~edges:[ (0, 2, 3., 1.); (1, 2, 2., 1.) ]
  in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:20. ~m_red:20. in
  let st = Sched_state.create g p in
  let _ = commit_on st 0 blue in
  let _ = commit_on st 1 red in
  let floors = Array.make (Dag.n_tasks g) 0. in
  let slots st =
    List.map
      (fun q ->
        if Sched_state.probe_fits st q then
          let e = Sched_state.probe_estimate st 2 q in
          Some (e.Sched_state.est, e.Sched_state.eft, Sched_state.probe_eft st q)
        else None)
      [ blue; red ]
  in
  let best = Sched_state.probe st ~not_before:floors 2 in
  let before = slots st in
  check_bool "C fits somewhere" true (best >= 0);
  let schedule = Sched_state.snapshot_schedule st in
  let ready = Sched_state.ready_tasks st in
  let free = List.map (Sched_state.free_mem_final st) [ blue; red ] in
  let cp = Sched_state.copy st in
  check_int "D probes on the copy" blue (Sched_state.probe cp ~not_before:floors 3);
  let slot = Alcotest.(list (option (triple (float 0.) (float 0.) (float 0.)))) in
  Alcotest.check slot "source slots survive a probe on the copy" before (slots st);
  let _ = commit_on cp 2 red in
  let _ = commit_on cp 3 blue in
  check_int "copy complete" 4 (Sched_state.n_assigned cp);
  check_int "source untouched" 2 (Sched_state.n_assigned st);
  let now = Sched_state.schedule st in
  Alcotest.(check (array (float 0.))) "starts" schedule.Schedule.starts now.Schedule.starts;
  Alcotest.(check (array int)) "procs" schedule.Schedule.procs now.Schedule.procs;
  Alcotest.(check (array (option (float 0.))))
    "transfers" schedule.Schedule.comm_starts now.Schedule.comm_starts;
  Alcotest.(check (list int)) "ready set" ready (Sched_state.ready_tasks st);
  Alcotest.(check (list (float 0.)))
    "free-memory staircases" free
    (List.map (Sched_state.free_mem_final st) [ blue; red ])

(* Everything [uncommit] must restore, printed bit-exactly ([%h]): the
   schedule arrays, the ready set with every ready task's probe slots on
   every pool, each pool's final free memory, and the commit order. *)
let undo_view st =
  let floors = Array.make (Dag.n_tasks (Sched_state.graph st)) 0. in
  let pools = List.init (Platform.n_pools (Sched_state.platform st)) Fun.id in
  let b = Buffer.create 256 and s = Sched_state.snapshot_schedule st in
  let f x = Printf.bprintf b "%h " x in
  Array.iter f s.Schedule.starts;
  Array.iter (Printf.bprintf b "%d ") s.Schedule.procs;
  Array.iter (function Some t -> f t | None -> Buffer.add_string b "- ") s.Schedule.comm_starts;
  List.iter
    (fun i ->
      Printf.bprintf b "\nready %d best %d: " i (Sched_state.probe st ~not_before:floors i);
      List.iter
        (fun q ->
          if Sched_state.probe_fits st q then begin
            let e = Sched_state.probe_estimate st i q in
            f e.Sched_state.est;
            f e.Sched_state.eft;
            f (Sched_state.probe_eft st q)
          end
          else Buffer.add_string b "- ")
        pools)
    (Sched_state.ready_tasks st);
  List.iter (fun q -> f (Sched_state.free_mem_final st q)) pools;
  List.iter (Printf.bprintf b "%d ") (Sched_state.commit_order st);
  Buffer.contents b

(* Commit up to [k] decisions, each a seeded ready task on its best pool;
   returns how many were made (fewer once no ready task fits). *)
let rec commit_some rng st k =
  match Sched_state.ready_tasks st with
  | _ :: _ as ready when k > 0 ->
    let i = List.nth ready (Rng.int rng (List.length ready)) in
    let floors = Array.make (Dag.n_tasks (Sched_state.graph st)) 0. in
    let q = Sched_state.probe st ~not_before:floors i in
    if q < 0 then 0
    else begin
      Sched_state.commit st (Sched_state.probe_estimate st i q);
      1 + commit_some rng st (k - 1)
    end
  | _ -> 0

(* With the trail on, j commits then j uncommits restore the state bit for
   bit, on the differential fuzzer's instances (every shape, cost and
   platform regime). *)
let uncommit_restores_state =
  qtest ~count:200 "uncommit restores the state bit for bit"
    QCheck.(triple seed_arb (int_range 0 12) (int_range 1 12))
    (fun (seed, k, j) ->
      let inst = Fuzz_gen.instance (Rng.create seed) in
      let st = Sched_state.create inst.Fuzz_instance.dag inst.Fuzz_instance.platform in
      Sched_state.set_trail st true;
      let rng = Rng.create (seed + 1) in
      ignore (commit_some rng st k);
      let before = undo_view st in
      for _ = 1 to commit_some rng st j do
        Sched_state.uncommit st
      done;
      String.equal before (undo_view st))

let test_free_mem_final_tracks_retained () =
  let g = ab_graph () in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:10. ~m_red:10. in
  let st = Sched_state.create g p in
  let _ = commit_on st 0 blue in
  (* A's output file (3 units) is retained in blue until B is scheduled. *)
  check_float "retained" 7. (Sched_state.free_mem_final st blue);
  let _ = commit_on st 1 blue in
  check_float "released" 10. (Sched_state.free_mem_final st blue)

(* What a finished MemHEFT state keeps beyond its graph, per task, on flat
   LU n=40 (22,140 tasks) at a capacity that never binds (the total file
   size, as [heft_measured] plans).  The staircases keep a live window after
   the forgetting horizon instead of their whole history: with full history
   this read 40.6 words per task. *)
let test_retained_state_words () =
  let g = Lu.generate ~pipeline_broadcasts:false ~n:40 () in
  let cap = Dag.total_file_size g in
  let p = Platform.with_bounds Workloads.platform_mirage ~m_blue:cap ~m_red:cap in
  let state, r = Heuristics.memheft_run g p in
  check_bool "complete" true (Result.is_ok r);
  let words = Obj.reachable_words (Obj.repr state) - Obj.reachable_words (Obj.repr g) in
  let per_task = float_of_int words /. float_of_int (Dag.n_tasks g) in
  if per_task > 30. then
    Alcotest.failf "a MemHEFT state on LU n=40 retains %.1f words per task (bound 30)" per_task

(* Batched vs per-edge comm_mem_EST: when the large incoming file has the
   short transfer and memory only frees up late, the paper's batched window
   (total mass over the max-C window) starts the task strictly later than
   the exact per-prefix check. *)
let test_batched_vs_per_edge () =
  let build () =
    let g =
      build_dag
        ~tasks:[ ("D", 1., 1.); ("E", 1., 1.); ("A", 1., 1.); ("B", 1., 1.); ("X", 1., 1.) ]
        ~edges:[ (0, 1, 8., 1.); (2, 4, 6., 1.); (3, 4, 4., 4.) ]
    in
    (g, 0, 1, 2, 3, 4)
  in
  let p = Platform.make ~p_blue:2 ~p_red:1 ~m_blue:infinity ~m_red:12. in
  let est_of options =
    let g, d, e, a, bb, x = build () in
    let st = Sched_state.create ~options g p in
    let commit i q = Sched_state.commit st (Option.get (estimate st i q)) in
    commit d red;
    commit e red;
    (* D's 8-unit file occupies red until E completes at t = 2. *)
    commit a blue;
    commit bb blue;
    (Option.get (estimate st x red)).Sched_state.est
  in
  let per_edge = est_of Sched_state.default_options in
  let batched =
    est_of { Sched_state.default_options with Sched_state.comm_mode = Sched_state.Jit_batched }
  in
  (* precedence = AFT(B) + C = 5; per-edge memory bound is 4 (covered by
     precedence); the batched window needs free >= 10 from t = 2 on, plus
     the max transfer time 4, i.e. EST 6. *)
  check_float "per-edge EST" 5. per_edge;
  check_float "batched EST" 6. batched

(* ------------------------------------------------------ paper toy runs --- *)

let test_heft_dex () =
  let o = Outcome.run Heuristics.HEFT dex (dex_platform ~m:infinity) in
  check_float "makespan" 6. o.Outcome.makespan;
  check_float "blue peak" 3. o.Outcome.peak_blue;
  check_float "red peak" 5. o.Outcome.peak_red

let test_minmin_dex () =
  let o = Outcome.run Heuristics.MinMin dex (dex_platform ~m:infinity) in
  check_float "makespan" 7. o.Outcome.makespan

let test_memheft_dex_tight () =
  let o = Outcome.run Heuristics.MemHEFT dex (dex_platform ~m:4.) in
  check_bool "feasible at 4" true o.Outcome.feasible;
  check_bool "peaks within bound" true (o.Outcome.peak_blue <= 4. && o.Outcome.peak_red <= 4.)

let test_memminmin_dex_tight () =
  let o = Outcome.run Heuristics.MemMinMin dex (dex_platform ~m:4.) in
  check_bool "feasible at 4" true o.Outcome.feasible;
  check_bool "peaks within bound" true (o.Outcome.peak_blue <= 4. && o.Outcome.peak_red <= 4.)

let test_heuristics_dex_infeasible () =
  List.iter
    (fun h ->
      let o = Outcome.run h dex (dex_platform ~m:3.) in
      check_bool "infeasible at 3" false o.Outcome.feasible;
      check_bool "has failure reason" true (o.Outcome.failure <> None))
    [ Heuristics.MemHEFT; Heuristics.MemMinMin ]

let test_failure_counts_progress () =
  match Heuristics.memheft dex (dex_platform ~m:3.) with
  | Ok _ -> Alcotest.fail "should be infeasible"
  | Error f -> check_bool "scheduled fewer than all" true (f.Heuristics.n_scheduled < 4)

(* --------------------------------------------- oracle property testing --- *)

(* Any schedule a heuristic returns must pass the full SS 3 oracle. *)
let heuristic_validity h =
  qtest ~count:60
    (Printf.sprintf "%s schedules pass the oracle" (Heuristics.name_to_string h))
    QCheck.(pair seed_arb (int_range 1 3))
    (fun (seed, procs) ->
      let g = dag_of_seed seed in
      let heft_peak =
        let p = Platform.unbounded ~p_blue:procs ~p_red:procs in
        Outcome.peak_max (Outcome.run Heuristics.HEFT g p)
      in
      (* Bounds from 60% of HEFT's peak upwards exercise both feasible and
         infeasible regions. *)
      let bound = 0.6 *. heft_peak in
      let p = Platform.make ~p_blue:procs ~p_red:procs ~m_blue:bound ~m_red:bound in
      match Heuristics.run h g p with
      | Error _ -> true (* refusals are fine; validity is what we check *)
      | Ok s -> (
        let check_p =
          if Heuristics.is_memory_aware h then p
          else Platform.with_bounds p ~m_blue:infinity ~m_red:infinity
        in
        match Validator.validate g check_p s with Ok _ -> true | Error _ -> false))

let memory_bounds_respected =
  qtest ~count:60 "memory-aware schedules never exceed the bounds"
    QCheck.(pair seed_arb (int_range 60 100))
    (fun (seed, pct) ->
      let g = dag_of_seed seed in
      let p0 = Platform.unbounded ~p_blue:2 ~p_red:2 in
      let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g p0) in
      let bound = float_of_int pct /. 100. *. peak in
      let p = Platform.with_bounds p0 ~m_blue:bound ~m_red:bound in
      List.for_all
        (fun h ->
          let o = Outcome.run h g p in
          (not o.Outcome.feasible)
          || (o.Outcome.peak_blue <= bound +. 1e-6 && o.Outcome.peak_red <= bound +. 1e-6))
        [ Heuristics.MemHEFT; Heuristics.MemMinMin ])

let infeasible_below_memreq =
  qtest ~count:60 "bounds below a task requirement are always refused" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let memreq_max = ref 0. in
      for i = 0 to Dag.n_tasks g - 1 do
        memreq_max := max !memreq_max (Dag.mem_req g i)
      done;
      let bound = 0.9 *. !memreq_max in
      let p = platform bound in
      List.for_all
        (fun h -> not (Outcome.run h g p).Outcome.feasible)
        [ Heuristics.MemHEFT; Heuristics.MemMinMin ])

let lower_bound_is_valid =
  qtest ~count:60 "lower bound under every heuristic makespan" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let p = Platform.unbounded ~p_blue:2 ~p_red:2 in
      let lb = Lower_bound.makespan g p in
      List.for_all
        (fun h ->
          let o = Outcome.run h g p in
          o.Outcome.makespan +. 1e-6 >= lb)
        Heuristics.all_names)

let heuristics_deterministic =
  qtest ~count:30 "same instance, same schedule" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let p = platform 1e9 in
      List.for_all
        (fun h ->
          let a = Outcome.run h g p and b = Outcome.run h g p in
          a.Outcome.makespan = b.Outcome.makespan)
        Heuristics.all_names)

let options_variants_valid =
  let opts =
    [ ("batched", { Sched_state.default_options with Sched_state.comm_mode = Sched_state.Jit_batched });
      ("eager", { Sched_state.default_options with Sched_state.comm_mode = Sched_state.Eager });
      ("insertion", { Sched_state.default_options with Sched_state.proc_policy = Sched_state.Insertion })
    ]
  in
  List.map
    (fun (name, options) ->
      qtest ~count:40 (Printf.sprintf "%s variant passes the oracle" name)
        seed_arb
        (fun seed ->
          let g = dag_of_seed seed in
          let p0 = Platform.unbounded ~p_blue:2 ~p_red:2 in
          let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g p0) in
          let p = Platform.with_bounds p0 ~m_blue:(0.7 *. peak) ~m_red:(0.7 *. peak) in
          List.for_all
            (fun h ->
              match Heuristics.run ~options h g p with
              | Error _ -> true
              | Ok s -> Result.is_ok (Validator.validate g p s))
            [ Heuristics.MemHEFT; Heuristics.MemMinMin ]))
    opts

(* MemHEFT with bounds at HEFT's measured (planned) peaks reproduces HEFT
   exactly (SS 6.2.1) -- every placement coincides, not just the makespan. *)
let memheft_replays_heft =
  qtest ~count:60 "MemHEFT at HEFT's planned peaks = HEFT" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let p0 = Platform.unbounded ~p_blue:2 ~p_red:2 in
      let heft_s, (pb, pr) = Heuristics.heft_measured g p0 in
      let p = Platform.with_bounds p0 ~m_blue:pb ~m_red:pr in
      match Heuristics.memheft g p with
      | Error _ -> false
      | Ok s ->
        List.for_all
          (fun i ->
            s.Schedule.starts.(i) = heft_s.Schedule.starts.(i)
            && s.Schedule.procs.(i) = heft_s.Schedule.procs.(i))
          (List.init (Dag.n_tasks g) Fun.id))

(* The planned peak dominates the event-trace peak. *)
let planned_peak_dominates =
  qtest ~count:60 "planned peak >= trace peak" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let p0 = Platform.unbounded ~p_blue:2 ~p_red:2 in
      let s, (pb, pr) = Heuristics.heft_measured g p0 in
      let tb, tr = Events.peaks g p0 s in
      pb +. 1e-9 >= tb && pr +. 1e-9 >= tr)

(* Zero-duration broadcast relays must not break anything. *)
let test_heuristics_on_cholesky () =
  let g = Cholesky.generate ~n:4 () in
  let p = Platform.make ~p_blue:2 ~p_red:1 ~m_blue:12. ~m_red:12. in
  List.iter
    (fun h ->
      match Heuristics.run h g p with
      | Ok s ->
        let check_p =
          match h with
          | Heuristics.HEFT | Heuristics.MinMin ->
            Platform.with_bounds p ~m_blue:infinity ~m_red:infinity
          | _ -> p
        in
        ignore (validate_ok g check_p s)
      | Error f -> Alcotest.failf "%s failed: %s" (Heuristics.name_to_string h) f.Heuristics.reason)
    Heuristics.all_names

let test_rng_tiebreak_valid () =
  let g = dag_of_seed 77 in
  let p = platform 1e9 in
  List.iter
    (fun seed ->
      match Heuristics.memheft ~rng:(Rng.create seed) g p with
      | Ok s -> ignore (validate_ok g p s)
      | Error f -> Alcotest.failf "unexpected failure: %s" f.Heuristics.reason)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------- outcome --- *)

let test_outcome_feasible_fields () =
  let o = Outcome.run Heuristics.MemHEFT dex (dex_platform ~m:5.) in
  check_bool "feasible" true o.Outcome.feasible;
  check_bool "schedule present" true (o.Outcome.schedule <> None);
  check_bool "no failure" true (o.Outcome.failure = None);
  check_float "peak max" 5. (Outcome.peak_max o)

let test_outcome_infeasible_fields () =
  let o = Outcome.run Heuristics.MemMinMin dex (dex_platform ~m:3.) in
  check_bool "not feasible" false o.Outcome.feasible;
  check_bool "nan makespan" true (Float.is_nan o.Outcome.makespan);
  check_bool "no schedule" true (o.Outcome.schedule = None)

let test_outcome_pp () =
  let feasible = Outcome.run Heuristics.HEFT dex (dex_platform ~m:infinity) in
  let infeasible = Outcome.run Heuristics.MemHEFT dex (dex_platform ~m:3.) in
  check_bool "pp feasible" true (String.length (Format.asprintf "%a" Outcome.pp feasible) > 0);
  check_bool "pp infeasible" true
    (let s = Format.asprintf "%a" Outcome.pp infeasible in
     String.length s > 0 && String.contains s 'i')

(* ---------------------------------------------------------- extensions --- *)

let extension_bounds_respected =
  qtest ~count:40 "extension heuristics respect the bounds" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let p0 = Platform.unbounded ~p_blue:2 ~p_red:2 in
      let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g p0) in
      let bound = 0.8 *. peak in
      let p = Platform.with_bounds p0 ~m_blue:bound ~m_red:bound in
      List.for_all
        (fun h ->
          let o = Outcome.run h g p in
          (not o.Outcome.feasible)
          || (o.Outcome.peak_blue <= bound +. 1e-6 && o.Outcome.peak_red <= bound +. 1e-6))
        [ Heuristics.MemMaxMin; Heuristics.MemSufferage ])

let test_sufferage_prefers_gap () =
  (* Two independent tasks; one strongly prefers red.  Sufferage must place
     the high-gap task on its preferred memory first. *)
  let g = build_dag ~tasks:[ ("picky", 10., 1.); ("flexible", 2., 2.) ] ~edges:[] in
  let picky = 0 and flexible = 1 in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:10. ~m_red:10. in
  (match Heuristics.memsufferage g p with
  | Ok s ->
    check_bool "picky on red" true (Schedule.memory_of p s picky = Platform.Red);
    check_float "both at 0" 0. s.Schedule.starts.(flexible)
  | Error _ -> Alcotest.fail "feasible");
  ignore flexible

let test_maxmin_schedules_long_first () =
  (* MaxMin gives the long task the head start. *)
  let g = build_dag ~tasks:[ ("long", 10., 10.); ("short", 1., 1.) ] ~edges:[] in
  let long = 0 and short = 1 in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:10. ~m_red:10. in
  match Heuristics.run Heuristics.MaxMin g p with
  | Ok s ->
    check_float "long first" 0. s.Schedule.starts.(long);
    ignore short
  | Error _ -> Alcotest.fail "feasible"

(* ---------------------------------------------------------- multistart --- *)

let test_multistart_matches_single_run () =
  let g = dag_of_seed 5 in
  let p = platform 1e9 in
  let m = Multistart.memheft ~restarts:0 g p in
  check_int "one run" 1 m.Multistart.n_runs;
  check_int "feasible" 1 m.Multistart.n_feasible;
  match (m.Multistart.best, Heuristics.memheft g p) with
  | Ok a, Ok b ->
    check_float "same schedule as plain memheft"
      (Schedule.makespan g p b) (Schedule.makespan g p a)
  | _ -> Alcotest.fail "both feasible"

let multistart_never_worse =
  qtest ~count:30 "multistart best <= deterministic memheft" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let p0 = Platform.unbounded ~p_blue:2 ~p_red:2 in
      let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g p0) in
      let p = Platform.with_bounds p0 ~m_blue:(0.8 *. peak) ~m_red:(0.8 *. peak) in
      let m = Multistart.memheft ~restarts:4 g p in
      match (m.Multistart.best, Heuristics.memheft g p) with
      | Ok best, Ok det -> Schedule.makespan g p best <= Schedule.makespan g p det +. 1e-9
      | Ok _, Error _ -> true (* restart recovered feasibility *)
      | Error _, Ok _ -> false (* must never lose the deterministic run *)
      | Error _, Error _ -> true)

let multistart_schedules_valid =
  qtest ~count:20 "multistart schedules pass the oracle" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let p0 = Platform.unbounded ~p_blue:2 ~p_red:2 in
      let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g p0) in
      let p = Platform.with_bounds p0 ~m_blue:(0.75 *. peak) ~m_red:(0.75 *. peak) in
      match (Multistart.memheft ~restarts:3 g p).Multistart.best with
      | Ok s -> Result.is_ok (Validator.validate g p s)
      | Error _ -> true)

let test_multistart_improvement_bounds () =
  let g = dag_of_seed 9 in
  let p = platform 1e9 in
  let m = Multistart.memheft ~restarts:5 g p in
  let imp = Multistart.improvement m in
  check_bool "in (0, 1]" true (imp > 0. && imp <= 1. +. 1e-9)

(* --------------------------------------------------------- lower bound --- *)

let test_lower_bound_dex () =
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:infinity ~m_red:infinity in
  check_float "critical path" 5. (Lower_bound.critical_path dex);
  (* total min work = 1 + 2 + 3 + 1 = 7 over 2 processors. *)
  check_float "work area" 3.5 (Lower_bound.work_area dex p);
  check_float "combined" 5. (Lower_bound.makespan dex p)

let test_lower_bound_many_procs () =
  let p = Platform.make ~p_blue:8 ~p_red:8 ~m_blue:infinity ~m_red:infinity in
  check_float "cp dominates" 5. (Lower_bound.makespan dex p)

let () =
  Alcotest.run "heuristics"
    ([ ( "rank",
         [ Alcotest.test_case "dex values" `Quick test_ranks_dex;
           Alcotest.test_case "dex priority list" `Quick test_priority_list_dex;
           Alcotest.test_case "random tie-break" `Quick test_priority_list_random_ties;
           Alcotest.test_case "large lists equal the comparison sort" `Quick
             test_priority_list_large;
           Alcotest.test_case "allocation budget" `Quick test_priority_list_alloc_budget;
           ranks_dominate_children ] );
       ( "sched_state",
         [ Alcotest.test_case "cross-memory estimate" `Quick test_estimate_cross_memory;
           Alcotest.test_case "memory-infeasible estimate" `Quick test_estimate_memory_infeasible;
           Alcotest.test_case "output-infeasible estimate" `Quick test_estimate_output_infeasible;
           Alcotest.test_case "not ready" `Quick test_estimate_not_ready;
           Alcotest.test_case "double commit" `Quick test_commit_rejects_double;
           Alcotest.test_case "copy isolation" `Quick test_state_copy_isolated;
           Alcotest.test_case "copy shares no mutable state" `Quick test_state_copy_shares_nothing;
           uncommit_restores_state;
           Alcotest.test_case "retained memory" `Quick test_free_mem_final_tracks_retained;
           Alcotest.test_case "retained words after LU n=40" `Quick test_retained_state_words;
           Alcotest.test_case "batched vs per-edge EST" `Quick test_batched_vs_per_edge ] );
       ( "paper-toy",
         [ Alcotest.test_case "HEFT on dex" `Quick test_heft_dex;
           Alcotest.test_case "MinMin on dex" `Quick test_minmin_dex;
           Alcotest.test_case "MemHEFT at M=4" `Quick test_memheft_dex_tight;
           Alcotest.test_case "MemMinMin at M=4" `Quick test_memminmin_dex_tight;
           Alcotest.test_case "infeasible at M=3" `Quick test_heuristics_dex_infeasible;
           Alcotest.test_case "failure reports progress" `Quick test_failure_counts_progress ] );
       ( "oracle-properties",
         List.map heuristic_validity (Heuristics.all_names @ Heuristics.extension_names)
         @ [ memory_bounds_respected; infeasible_below_memreq; lower_bound_is_valid;
             heuristics_deterministic; memheft_replays_heft; planned_peak_dominates ]
         @ options_variants_valid );
       ( "integration",
         [ Alcotest.test_case "cholesky with relays" `Quick test_heuristics_on_cholesky;
           Alcotest.test_case "random tie-break validity" `Quick test_rng_tiebreak_valid ] );
       ( "outcome",
         [ Alcotest.test_case "feasible fields" `Quick test_outcome_feasible_fields;
           Alcotest.test_case "infeasible fields" `Quick test_outcome_infeasible_fields;
           Alcotest.test_case "pp" `Quick test_outcome_pp ] );
       ( "extensions",
         [ extension_bounds_respected;
           Alcotest.test_case "sufferage prefers gap" `Quick test_sufferage_prefers_gap;
           Alcotest.test_case "maxmin long first" `Quick test_maxmin_schedules_long_first ] );
       ( "multistart",
         [ Alcotest.test_case "restarts=0 is plain memheft" `Quick test_multistart_matches_single_run;
           multistart_never_worse;
           multistart_schedules_valid;
           Alcotest.test_case "improvement ratio" `Quick test_multistart_improvement_bounds ] );
       ( "lower-bound",
         [ Alcotest.test_case "dex" `Quick test_lower_bound_dex;
           Alcotest.test_case "many processors" `Quick test_lower_bound_many_procs;
           Alcotest.test_case "min memory" `Quick (fun () ->
               check_float "dex min memory" 4. (Lower_bound.min_memory dex);
               check_bool "infeasible below" true
                 (Lower_bound.provably_infeasible dex (dex_platform ~m:3.));
               check_bool "not provable at 4" false
                 (Lower_bound.provably_infeasible dex (dex_platform ~m:4.)));
           qtest ~count:40 "provably infeasible instances are refused" seed_arb (fun seed ->
               let g = dag_of_seed seed in
               let bound = 0.9 *. Lower_bound.min_memory g in
               let p = platform bound in
               Lower_bound.provably_infeasible g p
               && (not (Outcome.run Heuristics.MemHEFT g p).Outcome.feasible)
               && not (Outcome.run Heuristics.MemMinMin g p).Outcome.feasible) ] ) ])
