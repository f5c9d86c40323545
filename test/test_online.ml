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
          let check_algo algo offline_run =
            let state, offline = offline_run g p in
            match (Online.plan ~algo ~arrival:Arrival.Batch g p, offline) with
            | Ok plan, Ok s ->
              let label = Online.algo_label algo in
              check_schedule_bits label plan.Online.p_schedule s;
              (* The decision list is the offline commit order, every floor
                 zero. *)
              let decisions = plan.Online.p_decisions in
              Alcotest.(check (list (pair int int)))
                (label ^ ": decisions")
                (List.map
                   (fun i -> (i, Platform.pool_of_proc p s.Schedule.procs.(i)))
                   (Sched_state.commit_order state))
                (List.map (fun (d : Online.decision) -> (d.Online.d_task, d.Online.d_pool)) decisions);
              check_bool (label ^ ": zero floors") true
                (List.for_all (fun (d : Online.decision) -> Float.equal d.Online.d_not_before 0.) decisions)
            | Error f, Error f' ->
              (* The reasons differ textually ("released"); the stuck point
                 must not. *)
              check_int "same stuck point" f'.Heuristics.n_scheduled f.Heuristics.n_scheduled
            | Ok _, Error _ | Error _, Ok _ ->
              Alcotest.fail "online Batch and offline disagree on feasibility"
          in
          check_algo Online.Heft_like (fun g p -> Heuristics.memheft_run g p);
          check_algo Online.Minmin_like (fun g p -> Heuristics.memminmin_run g p))
        [ infinity; 60. ];
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

(* Repair is Algorithm 1: when the very first planned decision no longer
   fits — its pool cut below the task's realized output — nothing is
   replayed, and re-rank repair from the empty state with the Batch plan's
   zero floors must be offline MemHEFT on the realized graph, bit for bit. *)
let test_repair_is_memheft =
  qtest ~count:40 "repair of a fully diverged replay is offline MemHEFT" seed_arb (fun seed ->
      let g = dag_of_seed ~size:14 seed in
      let p = platform infinity in
      let plan = plan_exn (Online.plan ~algo:Online.Heft_like ~arrival:Arrival.Batch g p) in
      let realized = Noise.perturb (Noise.spec ~seed ~level:0.3 ()) g in
      match plan.Online.p_decisions with
      | [] -> true
      | first :: _ ->
        let out = Dag.out_size realized first.Online.d_task in
        if out <= 0. then true
        else begin
          let caps =
            List.init (Platform.n_pools p) (fun q ->
                if q = first.Online.d_pool then out /. 2. else Platform.pool_capacity p q)
          in
          let p' = Platform.with_capacities p caps in
          let repaired = Replay.run ~policy:Replay.Rerank_repair plan realized p' in
          match (Heuristics.memheft realized p', repaired) with
          | Error _, _ -> true (* MemHEFT itself fails on the cut platform *)
          | Ok s, Ok o ->
            check_int "nothing replayed" 0 o.Replay.o_replayed;
            check_int "everything repaired" (Dag.n_tasks g) o.Replay.o_repaired;
            check_schedule_bits "repair = MemHEFT" s o.Replay.o_schedule;
            true
          | Ok _, Error f ->
            Alcotest.failf "repair failed where MemHEFT succeeds: %s" f.Heuristics.reason
        end)

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

(* ------------------------------------------------------------- pins --- *)

(* MD5 pins of the online planner and the replay engine, captured from the
   planner that drained each epoch with its own MemHEFT scan and MinMin
   selection: any change to one bit of a decision, release floor, start,
   transfer, makespan or peak changes a digest.  The grid covers both
   algorithms under Batch, Layered and Jittered arrivals, unbounded and
   tight caps (fractions of HEFT's peak), and replays that repair. *)

let pin_arrivals =
  [ Arrival.Batch; Arrival.Layered { gap = 2. }; Arrival.Jittered { gap = 2.; seed = 5 } ]

let pin_dag seed = dag_of_seed ~size:16 seed

(* The capped platform at [alpha] times HEFT's peak ([infinity] for none). *)
let pin_platform g alpha =
  if Float.equal alpha infinity then platform infinity
  else
    let heft = Outcome.peak_max (Outcome.run Heuristics.HEFT g (platform infinity)) in
    platform (alpha *. heft)

let add_failure b (f : Heuristics.failure) =
  Printf.bprintf b "fail@%d:%s;" f.Heuristics.n_scheduled f.Heuristics.reason

let add_plan b = function
  | Error f -> add_failure b f
  | Ok (plan : Online.plan) ->
    List.iter
      (fun (d : Online.decision) ->
        Printf.bprintf b "%d/%d/%h;" d.Online.d_task d.Online.d_pool d.Online.d_not_before)
      plan.Online.p_decisions;
    add_schedule_text b plan.Online.p_schedule;
    Printf.bprintf b "%h;%h;%h\n" plan.Online.p_makespan plan.Online.p_peak_blue
      plan.Online.p_peak_red

let add_outcome b = function
  | Error f -> add_failure b f
  | Ok (o : Replay.outcome) ->
    add_schedule_text b o.Replay.o_schedule;
    Printf.bprintf b "%h;%h;%h;%d;%d\n" o.Replay.o_makespan o.Replay.o_peak_blue
      o.Replay.o_peak_red o.Replay.o_replayed o.Replay.o_repaired

let hex b = Digest.to_hex (Digest.string (Buffer.contents b))

let plan_pin_digest seed alpha =
  let g = pin_dag seed in
  let p = pin_platform g alpha in
  let b = Buffer.create 4096 in
  List.iter
    (fun arrival ->
      List.iter
        (fun algo -> add_plan b (Online.plan ~algo ~arrival g p))
        [ Online.Heft_like; Online.Minmin_like ])
    pin_arrivals;
  hex b

(* Replays of every plan of the grid under three noise seeds and both
   policies; also returns how many tasks the repair policy placed, so the
   test can insist the repair loop is really exercised. *)
let replay_pin_digest seed alpha =
  let g = pin_dag seed in
  let p = pin_platform g alpha in
  let b = Buffer.create 4096 in
  let repaired = ref 0 in
  List.iter
    (fun arrival ->
      List.iter
        (fun algo ->
          match Online.plan ~algo ~arrival g p with
          | Error f -> add_failure b f
          | Ok plan ->
            List.iter
              (fun noise_seed ->
                let realized = Noise.perturb (Noise.spec ~seed:noise_seed ~level:0.4 ()) g in
                List.iter
                  (fun policy ->
                    let r = Replay.run ~policy plan realized p in
                    Result.iter (fun o -> repaired := !repaired + o.Replay.o_repaired) r;
                    add_outcome b r)
                  [ Replay.No_repair; Replay.Rerank_repair ])
              [ 0; 1; 2 ])
        [ Online.Heft_like; Online.Minmin_like ])
    pin_arrivals;
  (hex b, !repaired)

let plan_pins =
  [ (0, infinity, "38e277a6a40e8ea608de9b0909faa1ee");
    (0, 0.7, "16e561801e0b222001d4cc69d11a8425");
    (0, 0.5, "25290ccc64962c4026eedbb961589756");
    (1, infinity, "0c72153c65fea2287fddd960b54f452a");
    (1, 0.7, "d2563566110a11faa6a1d6a90207ffe4");
    (1, 0.5, "6e90b10747dcf0785ccefbf5037a2e65");
    (6, infinity, "6b9f3ee46b2a53f6564ef983cf67c192");
    (6, 0.7, "48791b37d01f6cca23d75789bc8f3923");
    (6, 0.5, "7382834ff69e6635823c9927b015bc00");
    (7, infinity, "0385a2f2d325868f00766c9c043c332f");
    (7, 0.7, "c9ec2d1bf3b179789654717beb0a315a");
    (7, 0.5, "222a561d79dde01729f478c9b81110bf") ]

let replay_pins =
  [ (0, 0.7, "d019f6f45b719a0ec39ee9cc2036b915");
    (1, 0.7, "7bf8051dbd72335cf1fa4c3747d76fe1");
    (2, 0.7, "52c479af6d4ff7f69f8b4f0866356f82");
    (2, 0.5, "d3cb18cef6982475c58a7d2cbe09b7be");
    (6, 0.7, "b99d6b79f17808124ae29d7cb0335bd2") ]

let test_plan_pins () =
  List.iter
    (fun (seed, alpha, digest) ->
      check_string (Printf.sprintf "plans seed=%d alpha=%g" seed alpha) digest
        (plan_pin_digest seed alpha))
    plan_pins

let test_replay_pins () =
  List.iter
    (fun (seed, alpha, digest) ->
      let d, repaired = replay_pin_digest seed alpha in
      check_bool (Printf.sprintf "seed=%d alpha=%g repairs" seed alpha) true (repaired > 0);
      check_string (Printf.sprintf "replays seed=%d alpha=%g" seed alpha) digest d)
    replay_pins

(* The pinned grid holds an epoch that stalls and a later release that
   unblocks it: a task committed after some task released later than
   itself, although every parent of it was placed before that later task.
   At the end of the earlier epoch the task was released and ready, and the
   drain stopped without it. *)
let stalled_then_unblocked g (plan : Online.plan) =
  let releases = Arrival.releases plan.Online.p_arrival g in
  let order = Array.of_list (List.map (fun (d : Online.decision) -> d.Online.d_task) plan.Online.p_decisions) in
  let pos = Array.make (Array.length order) 0 in
  Array.iteri (fun k i -> pos.(i) <- k) order;
  let stalled k i =
    match List.find_opt (fun k' -> releases.(order.(k')) > releases.(i)) (List.init k Fun.id) with
    | Some later -> List.for_all (fun j -> pos.(j) < later) (parents g i)
    | None -> false
  in
  List.exists (fun k -> stalled k order.(k)) (List.init (Array.length order) Fun.id)

let test_pins_hold_a_stall () =
  let g = pin_dag 1 in
  let p = pin_platform g 0.7 in
  List.iter
    (fun algo ->
      let arrival = Arrival.Jittered { gap = 2.; seed = 5 } in
      let plan = plan_exn (Online.plan ~algo ~arrival g p) in
      check_bool (Online.algo_label algo ^ " stalls, then a release unblocks it") true
        (stalled_then_unblocked g plan))
    [ Online.Heft_like; Online.Minmin_like ]

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
          test_release_floors_respected;
          Alcotest.test_case "single task and tiny graphs" `Quick test_online_single_task_and_tiny ] );
      ( "replay",
        [ test_noise0_fixpoint;
          test_replay_unbounded_never_diverges;
          Alcotest.test_case "divergence without repair" `Quick test_replay_divergence_no_repair;
          Alcotest.test_case "re-rank repair recovers" `Quick test_replay_divergence_rerank_recovers;
          test_repair_is_memheft;
          Alcotest.test_case "planted cap violation rejected" `Quick test_planted_cap_violation_rejected ] );
      ( "determinism",
        [ Alcotest.test_case "jobs invariance" `Quick test_scenario_jobs_invariance;
          Alcotest.test_case "seed-order invariance" `Quick test_scenario_seed_order_invariance;
          Alcotest.test_case "summary counts" `Quick test_scenario_summary_counts ] );
      ( "pins",
        [ Alcotest.test_case "online plans" `Quick test_plan_pins;
          Alcotest.test_case "replays" `Quick test_replay_pins;
          Alcotest.test_case "the grid holds a stalled epoch" `Quick test_pins_hold_a_stall ] ) ]
