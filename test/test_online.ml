(* Tests for the scenario layer: seeded noise model, arrival processes, the
   online planners, the replay engine with its rescheduling policies, and
   the jobs/seed-order determinism of the degradation campaigns. *)

open Helpers

let bits = Int64.bits_of_float

let contains sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Bit-for-bit schedule equality: the claim the fixpoint and batch-equals-
   offline properties make is exact reproduction, not closeness. *)
let check_schedule_bits name (a : Schedule.t) (b : Schedule.t) =
  check_int (name ^ ": task count") (Array.length a.Schedule.starts) (Array.length b.Schedule.starts);
  Array.iteri
    (fun i s -> check_bool (Printf.sprintf "%s: start %d" name i) true (bits s = bits b.Schedule.starts.(i)))
    a.Schedule.starts;
  Alcotest.(check (array int)) (name ^ ": procs") a.Schedule.procs b.Schedule.procs;
  Array.iteri
    (fun e c ->
      let same =
        match (c, b.Schedule.comm_starts.(e)) with
        | None, None -> true
        | Some x, Some y -> bits x = bits y
        | _ -> false
      in
      check_bool (Printf.sprintf "%s: comm %d" name e) true same)
    a.Schedule.comm_starts

let dag_equal_bits name g h =
  check_int (name ^ ": tasks") (Dag.n_tasks g) (Dag.n_tasks h);
  check_int (name ^ ": edges") (Dag.n_edges g) (Dag.n_edges h);
  Array.iteri
    (fun i (t : Dag.task) ->
      let u = Dag.task h i in
      check_bool (name ^ ": w_blue") true (bits t.Dag.w_blue = bits u.Dag.w_blue);
      check_bool (name ^ ": w_red") true (bits t.Dag.w_red = bits u.Dag.w_red))
    (Dag.tasks g);
  Array.iteri
    (fun e (x : Dag.edge) ->
      let y = Dag.edge h e in
      check_int (name ^ ": src") x.Dag.src y.Dag.src;
      check_int (name ^ ": dst") x.Dag.dst y.Dag.dst;
      check_bool (name ^ ": size") true (bits x.Dag.size = bits y.Dag.size);
      check_bool (name ^ ": comm") true (bits x.Dag.comm = bits y.Dag.comm))
    (Dag.edges g)

(* ------------------------------------------------------------ noise --- *)

let test_noise_spec_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "negative level" true (bad (fun () -> Noise.spec ~seed:0 ~level:(-0.1) ()));
  check_bool "nan level" true (bad (fun () -> Noise.spec ~seed:0 ~level:(0. /. 0.) ()));
  check_bool "zero floor" true (bad (fun () -> Noise.spec ~min_factor:0. ~seed:0 ~level:0.1 ()));
  check_bool "floor above 1" true (bad (fun () -> Noise.spec ~min_factor:1.5 ~seed:0 ~level:0.1 ()))

let test_noise_zero_level_is_identity =
  qtest ~count:50 "level 0 perturbation is the identity bit-for-bit" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let spec = Noise.spec ~seed:(seed + 17) ~level:0. () in
      dag_equal_bits "noise0" g (Noise.perturb spec g);
      true)

let test_noise_truncation =
  qtest ~count:200 "factors stay finite and above the floor at extreme levels" seed_arb
    (fun seed ->
      let spec = Noise.spec ~seed ~level:50. () in
      List.for_all
        (fun key ->
          let f = Noise.task_factor spec key and e = Noise.edge_factor spec key in
          Float.is_finite f && Float.is_finite e && f >= spec.Noise.min_factor
          && e >= spec.Noise.min_factor)
        [ 0; 1; 2; 3; 100; 10_000 ])

let test_noise_perturb_guards =
  qtest ~count:50 "perturbed graphs pass the builder's finiteness guards" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let spec = Noise.spec ~seed:(2 * seed) ~level:0.9 () in
      let h = Noise.perturb spec g in
      Array.for_all (fun (t : Dag.task) -> t.Dag.w_blue >= 0. && t.Dag.w_red >= 0.) (Dag.tasks h)
      && Array.for_all (fun (e : Dag.edge) -> e.Dag.size >= 0. && e.Dag.comm >= 0.) (Dag.edges h))

let test_noise_stream_independence () =
  (* A task's factor is a pure function of (seed, id): evaluating other
     entities first — in any order, for any entity count — never changes it. *)
  let spec = Noise.spec ~seed:42 ~level:0.3 () in
  let direct = Noise.task_factor spec 5 in
  List.iter (fun k -> ignore (Noise.task_factor spec k)) [ 9; 0; 3; 77; 5; 1 ];
  List.iter (fun k -> ignore (Noise.edge_factor spec k)) [ 5; 2; 8 ];
  check_bool "independent of evaluation order" true (bits direct = bits (Noise.task_factor spec 5));
  (* Task and edge streams never collide: the factors for the same index
     come from different keyed streams. *)
  check_bool "task/edge streams distinct" true
    (bits (Noise.task_factor spec 5) <> bits (Noise.edge_factor spec 5))

let test_rng_keyed_order_independent () =
  let a = Rng.float (Rng.keyed ~seed:7 ~key:3) 1.0 in
  ignore (Rng.float (Rng.keyed ~seed:7 ~key:1) 1.0);
  ignore (Rng.float (Rng.keyed ~seed:7 ~key:2) 1.0);
  let b = Rng.float (Rng.keyed ~seed:7 ~key:3) 1.0 in
  check_bool "keyed stream is a pure function of (seed, key)" true (bits a = bits b);
  check_bool "distinct keys differ" true
    (bits a <> bits (Rng.float (Rng.keyed ~seed:7 ~key:4) 1.0))

(* ---------------------------------------------------------- arrivals --- *)

let test_arrival_precedence_consistent =
  qtest ~count:100 "releases never precede an ancestor's release" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let ok process =
        let r = Arrival.releases process g in
        Array.for_all
          (fun (e : Dag.edge) -> r.(e.Dag.src) <= r.(e.Dag.dst))
          (Dag.edges g)
      in
      ok Arrival.Batch
      && ok (Arrival.Layered { gap = 2.5 })
      && ok (Arrival.Jittered { gap = 2.5; seed }))

let test_arrival_batch_is_zero () =
  let g = dag_of_seed 3 in
  check_bool "all zero" true
    (Array.for_all (fun t -> Float.equal t 0.) (Arrival.releases Arrival.Batch g))

let test_arrival_negative_gap () =
  Alcotest.check_raises "negative gap" (Invalid_argument "Arrival: negative gap") (fun () ->
      ignore (Arrival.releases (Arrival.Layered { gap = -1. }) (dag_of_seed 0)))

(* ------------------------------------------- online planner vs offline --- *)

let plan_exn r = match r with Ok p -> p | Error f -> Alcotest.failf "plan failed: %s" f.Heuristics.reason

let test_batch_equals_offline =
  qtest ~count:40 "batch arrivals reproduce the offline heuristics bit-for-bit" seed_arb
    (fun seed ->
      let g = dag_of_seed ~size:16 seed in
      List.iter
        (fun cap ->
          let p = platform cap in
          let check_algo algo offline =
            match (Online.plan ~algo ~arrival:Arrival.Batch g p, offline ()) with
            | Ok plan, Ok s ->
              check_schedule_bits (Online.algo_label algo) plan.Online.p_schedule s
            | Error f, Error f' ->
              (* The reasons differ textually ("released"); the stuck point
                 must not. *)
              check_int "same stuck point" f'.Heuristics.n_scheduled f.Heuristics.n_scheduled
            | Ok _, Error _ | Error _, Ok _ ->
              Alcotest.fail "online Batch and offline disagree on feasibility"
          in
          check_algo Online.Heft_like (fun () -> Heuristics.memheft g p);
          check_algo Online.Minmin_like (fun () -> Heuristics.memminmin g p))
        [ infinity; 60. ];
      true)

let test_plan_of_offline_equals_batch =
  qtest ~count:25 "plan_of_offline agrees with plan ~arrival:Batch" seed_arb (fun seed ->
      let g = dag_of_seed ~size:14 seed in
      let p = platform infinity in
      List.iter
        (fun algo ->
          let a = plan_exn (Online.plan ~algo ~arrival:Arrival.Batch g p) in
          let b = plan_exn (Online.plan_of_offline ~algo g p) in
          check_schedule_bits "offline plan schedule" a.Online.p_schedule b.Online.p_schedule;
          check_bool "same decision sequence" true (a.Online.p_decisions = b.Online.p_decisions))
        [ Online.Heft_like; Online.Minmin_like ];
      true)

let test_release_floors_respected =
  qtest ~count:40 "no task starts before its release; schedules stay valid" seed_arb
    (fun seed ->
      let g = dag_of_seed ~size:14 seed in
      let p = platform infinity in
      List.iter
        (fun arrival ->
          let releases = Arrival.releases arrival g in
          List.iter
            (fun algo ->
              let plan = plan_exn (Online.plan ~algo ~arrival g p) in
              let s = plan.Online.p_schedule in
              Array.iteri
                (fun i r -> check_bool "start after release" true (s.Schedule.starts.(i) >= r))
                releases;
              ignore (validate_ok g p s);
              check_int "decisions cover the graph" (Dag.n_tasks g)
                (List.length plan.Online.p_decisions))
            [ Online.Heft_like; Online.Minmin_like ])
        [ Arrival.Layered { gap = 3. }; Arrival.Jittered { gap = 3.; seed } ];
      true)

let test_online_single_task_and_tiny () =
  (* Empty graph: plan and replay are the trivial fixpoint. *)
  let empty = Dag.Builder.finalize (Dag.Builder.create ()) in
  let p0 = platform 5. in
  let plan0 = plan_exn (Online.plan ~algo:Online.Heft_like ~arrival:Arrival.Batch empty p0) in
  check_float "empty makespan" 0. plan0.Online.p_makespan;
  (match Replay.run ~policy:Replay.No_repair plan0 empty p0 with
  | Ok o -> check_float "empty replay" 0. o.Replay.o_makespan
  | Error f -> Alcotest.failf "empty replay failed: %s" f.Heuristics.reason);
  let g = build_dag ~tasks:[ ("only", 2., 1.) ] ~edges:[] in
  let p = platform 10. in
  let plan = plan_exn (Online.plan ~algo:Online.Heft_like ~arrival:(Arrival.Layered { gap = 4. }) g p) in
  check_float "single task makespan" 1. plan.Online.p_makespan;
  let realized = Noise.perturb (Noise.spec ~seed:1 ~level:0. ()) g in
  (match Replay.run ~policy:Replay.No_repair plan realized p with
  | Ok o -> check_schedule_bits "single-task replay" plan.Online.p_schedule o.Replay.o_schedule
  | Error f -> Alcotest.failf "single-task replay failed: %s" f.Heuristics.reason);
  (* Two independent tasks arriving in separate epochs. *)
  let g2 = build_dag ~tasks:[ ("a", 1., 1.); ("b", 1., 1.) ] ~edges:[] in
  let plan2 = plan_exn (Online.plan ~algo:Online.Minmin_like ~arrival:(Arrival.Layered { gap = 5. }) g2 p) in
  ignore (validate_ok g2 p plan2.Online.p_schedule)

(* ------------------------------------------------------------ replay --- *)

let test_noise0_fixpoint =
  qtest ~count:40 "zero-noise replay reproduces the plan bit-for-bit" seed_arb (fun seed ->
      let g = dag_of_seed ~size:14 seed in
      let p = platform 80. in
      let realized = Noise.perturb (Noise.spec ~seed:(seed + 1) ~level:0. ()) g in
      List.iter
        (fun arrival ->
          List.iter
            (fun algo ->
              match Online.plan ~algo ~arrival g p with
              | Error _ -> ()  (* infeasible under the finite caps: nothing to replay *)
              | Ok plan -> (
                match Replay.run ~policy:Replay.No_repair plan realized p with
                | Ok o ->
                  check_schedule_bits "fixpoint" plan.Online.p_schedule o.Replay.o_schedule;
                  check_int "nothing repaired" 0 o.Replay.o_repaired
                | Error f -> Alcotest.failf "zero-noise replay diverged: %s" f.Heuristics.reason))
            [ Online.Heft_like; Online.Minmin_like ])
        [ Arrival.Batch; Arrival.Jittered { gap = 2.; seed } ];
      true)

let test_replay_unbounded_never_diverges =
  qtest ~count:40 "without caps a replay never diverges and stays valid" seed_arb (fun seed ->
      let g = dag_of_seed ~size:14 seed in
      let p = platform infinity in
      let plan = plan_exn (Online.plan ~algo:Online.Heft_like ~arrival:Arrival.Batch g p) in
      let realized = Noise.perturb (Noise.spec ~seed ~level:0.4 ()) g in
      match Replay.run ~policy:Replay.No_repair plan realized p with
      | Error f -> Alcotest.failf "unbounded replay diverged: %s" f.Heuristics.reason
      | Ok o ->
        ignore (validate_ok realized p o.Replay.o_schedule);
        check_int "all decisions replayed" (Dag.n_tasks g) o.Replay.o_replayed;
        Float.is_finite o.Replay.o_makespan)

(* A hand-built divergence: the planned memory can no longer hold the
   inflated file, the other memory still can.  No-repair must fail;
   re-rank-and-repair must recover on the roomier memory. *)
let divergence_fixture () =
  let g =
    build_dag
      ~tasks:[ ("t", 1., 2.); ("u", 1., 1.) ]
      ~edges:[ (0, 1, 4., 1.) ]
  in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:5. ~m_red:30. in
  let plan = plan_exn (Online.plan ~algo:Online.Heft_like ~arrival:Arrival.Batch g p) in
  check_bool "planned on blue" true
    (Schedule.memory_of p plan.Online.p_schedule 0 = Platform.Blue);
  (* Find a noise seed inflating the edge beyond the blue capacity. *)
  let level = 0.8 in
  let rec find seed =
    if seed > 500 then Alcotest.fail "no inflating seed found"
    else
      let spec = Noise.spec ~seed ~level () in
      if Noise.edge_factor spec 0 > 1.3 then spec else find (seed + 1)
  in
  let spec = find 0 in
  (g, p, plan, Noise.perturb spec g)

let test_replay_divergence_no_repair () =
  let _, p, plan, realized = divergence_fixture () in
  match Replay.run ~policy:Replay.No_repair plan realized p with
  | Ok _ -> Alcotest.fail "expected a divergence"
  | Error f ->
    check_bool "reports the divergence" true (contains "diverged" f.Heuristics.reason)

let test_replay_divergence_rerank_recovers () =
  let _, p, plan, realized = divergence_fixture () in
  match Replay.run ~policy:Replay.Rerank_repair plan realized p with
  | Error f -> Alcotest.failf "repair failed: %s" f.Heuristics.reason
  | Ok o ->
    let r = validate_ok realized p o.Replay.o_schedule in
    check_bool "moved off the tight memory" true
      (Schedule.memory_of p o.Replay.o_schedule 0 = Platform.Red);
    check_int "everything repaired" 2 o.Replay.o_repaired;
    check_bool "caps respected at repair time" true (r.Validator.peak_blue <= 5.)

let test_planted_cap_violation_rejected () =
  (* Mutation: pretend the planned schedule ran unchanged while the file
     grew past the planned memory's capacity.  Only sizes are inflated —
     durations and transfer times stay planned, so the timing is consistent
     and the memory overrun is the one constraint left to catch. *)
  let g, p, plan, _ = divergence_fixture () in
  ignore g;
  let inflated =
    build_dag ~tasks:[ ("t", 1., 2.); ("u", 1., 1.) ] ~edges:[ (0, 1, 6., 1.) ]
  in
  (match Validator.validate inflated p plan.Online.p_schedule with
  | Ok _ -> Alcotest.fail "validator accepted a cap-violating replay"
  | Error errs ->
    check_bool "names the capacity violation" true
      (List.exists (contains "exceeds capacity") errs));
  (* And the replay engine refuses to take that decision in the first
     place: following the plan without repair diverges instead of
     overcommitting the tight memory. *)
  match Replay.run ~policy:Replay.No_repair plan inflated p with
  | Ok _ -> Alcotest.fail "replay overcommitted a memory past its cap"
  | Error f -> check_bool "replay diverges instead" true (contains "diverged" f.Heuristics.reason)

(* ------------------------------------------------------- determinism --- *)

let scenario_fixture () =
  let instances =
    [ ("d7", dag_of_seed ~size:12 7); ("d11", dag_of_seed ~size:12 11);
      ("lu6", Workloads.lu ~n:6 ()) ]
  in
  let cfg =
    {
      Scenario.default_config with
      Scenario.arrival = Arrival.Jittered { gap = 1.5; seed = 5 };
      noise_level = 0.3;
      noise_seeds = [ 0; 1; 2; 3 ];
    }
  in
  (cfg, instances, platform 100.)

let rows_digest cfg rows =
  String.concat "\n" (List.map (fun r -> Csv.row_to_string (Scenario.csv_row cfg r)) rows)

let test_scenario_jobs_invariance () =
  let cfg, instances, p = scenario_fixture () in
  let serial, _ = Scenario.run cfg instances p in
  List.iter
    (fun jobs ->
      let rows, _ = Par.with_pool ~jobs (fun pool -> Scenario.run ~pool cfg instances p) in
      check_string
        (Printf.sprintf "rows identical at jobs=%d" jobs)
        (rows_digest cfg serial) (rows_digest cfg rows))
    [ 1; 2; 8 ]

let test_scenario_seed_order_invariance () =
  let cfg, instances, p = scenario_fixture () in
  let a, _ = Scenario.run cfg instances p in
  let shuffled = { cfg with Scenario.noise_seeds = [ 3; 1; 0; 2; 2; 1 ] } in
  let b, _ = Scenario.run shuffled instances p in
  check_string "seed order and duplicates do not matter" (rows_digest cfg a) (rows_digest cfg b)

let test_scenario_summary_counts () =
  let cfg, instances, p = scenario_fixture () in
  let rows, summaries = Scenario.run cfg instances p in
  check_int "grid size" (3 * 2 * 4) (List.length rows);
  check_int "summary per (instance, policy)" 6 (List.length summaries);
  List.iter
    (fun s ->
      check_int "every seed accounted for" 4 (s.Scenario.s_ok + s.Scenario.s_failed);
      if s.Scenario.s_ok > 0 then begin
        check_bool "p50 <= p95" true (s.Scenario.s_mk_p50 <= s.Scenario.s_mk_p95);
        check_bool "p95 <= max" true (s.Scenario.s_mk_p95 <= s.Scenario.s_mk_max)
      end)
    summaries

let () =
  Alcotest.run "online"
    [ ( "noise",
        [ Alcotest.test_case "spec validation" `Quick test_noise_spec_validation;
          test_noise_zero_level_is_identity;
          test_noise_truncation;
          test_noise_perturb_guards;
          Alcotest.test_case "stream independence" `Quick test_noise_stream_independence;
          Alcotest.test_case "keyed rng order-independent" `Quick test_rng_keyed_order_independent ] );
      ( "arrival",
        [ test_arrival_precedence_consistent;
          Alcotest.test_case "batch is zero" `Quick test_arrival_batch_is_zero;
          Alcotest.test_case "negative gap rejected" `Quick test_arrival_negative_gap ] );
      ( "planner",
        [ test_batch_equals_offline;
          test_plan_of_offline_equals_batch;
          test_release_floors_respected;
          Alcotest.test_case "single task and tiny graphs" `Quick test_online_single_task_and_tiny ] );
      ( "replay",
        [ test_noise0_fixpoint;
          test_replay_unbounded_never_diverges;
          Alcotest.test_case "divergence without repair" `Quick test_replay_divergence_no_repair;
          Alcotest.test_case "re-rank repair recovers" `Quick test_replay_divergence_rerank_recovers;
          Alcotest.test_case "planted cap violation rejected" `Quick test_planted_cap_violation_rejected ] );
      ( "determinism",
        [ Alcotest.test_case "jobs invariance" `Quick test_scenario_jobs_invariance;
          Alcotest.test_case "seed-order invariance" `Quick test_scenario_seed_order_invariance;
          Alcotest.test_case "summary counts" `Quick test_scenario_summary_counts ] ) ]
