(* Tests for platforms with k memory pools — the paper's SS 7 future work.
   The scheduling core runs on any pool count, reading per-pool durations as
   pool-major columns; Mschedule is the independent k-pool validity oracle
   its schedules are checked against.  The central
   properties: a 2-pool platform built pool by pool schedules exactly like
   the dual-memory one, and 3-pool schedules pass the k-pool oracle. *)

open Helpers

let three_pool ?(caps = [ 20.; 20.; 20. ]) () =
  Platform.of_pools (List.map (fun capacity -> { Platform.procs = 2; capacity }) caps)

(* A 3-pool problem: a graph and its pool-major duration columns, drawn
   task by task. *)
let three_pool_problem seed =
  let g = dag_of_seed ~size:15 seed in
  let rng = Rng.create (seed + 1000) in
  let durations = Array.make_matrix 3 (Dag.n_tasks g) 0. in
  for i = 0 to Dag.n_tasks g - 1 do
    for q = 0 to 2 do
      durations.(q).(i) <- float_of_int (Rng.int_incl rng 1 20)
    done
  done;
  (g, durations)

let memheft (g, durations) p = Heuristics.memheft ~durations g p
let memminmin (g, durations) p = Heuristics.memminmin ~durations g p
let heft (g, durations) p = Heuristics.heft ~durations g p
let validate (g, durations) p s = Mschedule.validate g ~durations p s
let validate_exn (g, durations) p s = Mschedule.validate_exn g ~durations p s

let raises what f =
  check_bool what true (try ignore (f ()); false with Invalid_argument _ -> true)

(* ------------------------------------------------------ k-pool platform --- *)

let test_mplatform_basics () =
  let p = three_pool () in
  check_int "pools" 3 (Platform.n_pools p);
  check_int "procs" 6 (Platform.n_procs p);
  check_int "pool of proc 0" 0 (Platform.pool_of_proc p 0);
  check_int "pool of proc 3" 1 (Platform.pool_of_proc p 3);
  check_int "pool of proc 5" 2 (Platform.pool_of_proc p 5);
  Alcotest.(check (list int)) "procs of pool 1" [ 2; 3 ] (Platform.procs_of_pool p 1);
  Alcotest.check_raises "proc out of range" (Invalid_argument "Platform.pool_of_proc: out of range")
    (fun () -> ignore (Platform.pool_of_proc p 6))

let test_mplatform_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Platform.of_pools: at least one pool required")
    (fun () -> ignore (Platform.of_pools []));
  Alcotest.check_raises "zero procs"
    (Invalid_argument "Platform.of_pools: processor counts must be positive") (fun () ->
      ignore (Platform.of_pools [ { Platform.procs = 0; capacity = 1. } ]))

(* [Platform.make] is the 2-pool platform, blue first. *)
let test_mplatform_of_dual () =
  let p = Platform.make ~p_blue:3 ~p_red:2 ~m_blue:7. ~m_red:9. in
  check_int "two pools" 2 (Platform.n_pools p);
  Alcotest.(check (list int)) "blue procs" [ 0; 1; 2 ] (Platform.procs_of_pool p 0);
  check_float "red capacity" 9. (Platform.pool_capacity p 1)

let test_mplatform_with_capacities () =
  let p = Platform.with_capacities (three_pool ()) [ 1.; 2.; 3. ] in
  check_float "updated" 2. (Platform.pool_capacity p 1);
  Alcotest.check_raises "arity" (Invalid_argument "Platform.with_capacities: arity mismatch")
    (fun () -> ignore (Platform.with_capacities p [ 1. ]))

(* ----------------------------------------------------------- durations --- *)

(* The default columns are the graph's dual-memory times, blue first. *)
let test_default_durations () =
  let g = Toy.dex () in
  let d = Dag.default_durations g in
  check_int "pools" 2 (Array.length d);
  check_float "T1 pool0" 3. d.(0).(0);
  check_float "T1 pool1" 1. d.(1).(0);
  Alcotest.(check (array (float 0.))) "pool 1 column" (Dag.Csr.w_red g) d.(1)

(* ------------------------------------------------- 2-pool = dual memory --- *)

let dual_consistency =
  qtest ~count:50 "2-pool generalisation = dual-memory implementation" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let dual = Platform.unbounded ~p_blue:2 ~p_red:2 in
      let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g dual) in
      let bound = 0.8 *. peak in
      let dual_b = Platform.with_bounds dual ~m_blue:bound ~m_red:bound in
      let pools_b =
        Platform.of_pools
          [ { Platform.procs = 2; capacity = bound }; { Platform.procs = 2; capacity = bound } ]
      in
      let same_result (a : Heuristics.result) (b : Heuristics.result) =
        match (a, b) with
        | Error fa, Error fb -> fa.Heuristics.n_scheduled = fb.Heuristics.n_scheduled
        | Ok sa, Ok sb ->
          Array.for_all2 Float.equal sa.Schedule.starts sb.Schedule.starts
          && Array.for_all2 Int.equal sa.Schedule.procs sb.Schedule.procs
          && Array.for_all2 (Option.equal Float.equal) sa.Schedule.comm_starts sb.Schedule.comm_starts
        | _ -> false
      in
      List.for_all
        (fun h -> same_result (Heuristics.run h g dual_b) (Heuristics.run h g pools_b))
        (Heuristics.all_names @ Heuristics.extension_names))

(* -------------------------------------------------------------- 3 pools --- *)

let three_pool_validity =
  qtest ~count:40 "3-pool schedules pass the oracle" seed_arb (fun seed ->
      let problem = three_pool_problem seed in
      let p = three_pool ~caps:[ 40.; 40.; 40. ] () in
      List.for_all
        (fun run ->
          match run problem p with
          | Ok s -> Result.is_ok (validate problem p s)
          | Error _ -> true)
        [ memheft; memminmin ])

let three_pool_bounds_respected =
  qtest ~count:40 "3-pool peaks within capacities" seed_arb (fun seed ->
      let problem = three_pool_problem seed in
      let p = three_pool ~caps:[ 25.; 30.; 35. ] () in
      match memheft problem p with
      | Error _ -> true
      | Ok s -> (
        match validate problem p s with
        | Ok r ->
          r.Mschedule.peaks.(0) <= 25. +. 1e-6
          && r.Mschedule.peaks.(1) <= 30. +. 1e-6
          && r.Mschedule.peaks.(2) <= 35. +. 1e-6
        | Error _ -> false))

let test_three_pool_feasible_case () =
  let problem = three_pool_problem 7 in
  let p = three_pool ~caps:[ 1000.; 1000.; 1000. ] () in
  match memheft problem p with
  | Ok s ->
    let r = validate_exn problem p s in
    check_bool "positive makespan" true (r.Mschedule.makespan > 0.)
  | Error f -> Alcotest.failf "unexpected failure: %s" f.Heuristics.reason

let test_three_pool_infeasible_case () =
  let problem = three_pool_problem 7 in
  let p = three_pool ~caps:[ 1.; 1.; 1. ] () in
  check_bool "refused" true (Result.is_error (memheft problem p))

let test_heft_unbounded () =
  let problem = three_pool_problem 3 in
  let p = three_pool ~caps:[ 1.; 1.; 1. ] () in
  (* the memory-oblivious wrapper ignores the (tiny) capacities *)
  let s = heft problem p in
  let unbounded = Platform.with_capacities p [ infinity; infinity; infinity ] in
  ignore (validate_exn problem unbounded s)

let test_more_pools_help () =
  (* Splitting the same processors across more pools cannot be checked in
     general, but a third fast pool must not hurt a pool-2-favouring
     workload: makespan with 3 pools <= makespan with pool 2 removed when
     every task is fastest there. *)
  let g = Toy.independent ~n:8 ~w_blue:8. ~w_red:8. in
  let d3 = [| Array.make 8 8.; Array.make 8 8.; Array.make 8 1. |] in
  let p3 = Platform.of_pools (List.init 3 (fun _ -> { Platform.procs = 1; capacity = infinity })) in
  let m3 = Mschedule.makespan d3 p3 (heft (g, d3) p3) in
  let d2 = Dag.default_durations g in
  let p2 = Platform.unbounded ~p_blue:1 ~p_red:1 in
  let m2 = Mschedule.makespan d2 p2 (heft (g, d2) p2) in
  check_bool "fast third pool helps" true (m3 < m2)

(* The core takes the pool count from the platform and the durations from
   their columns: the two must agree. *)
let test_durations_must_match_pools () =
  let g, durations = three_pool_problem 3 in
  raises "dual durations on 3 pools" (fun () -> Heuristics.memheft g (three_pool ()));
  raises "3 columns on 2 pools" (fun () ->
      Heuristics.memheft ~durations g (Platform.unbounded ~p_blue:1 ~p_red:1))

(* Raw columns get the builder's checks at the core's one gate: a NaN would
   otherwise lose every EFT comparison silently, and a short column would
   read past a task's entry.  Each malformed set of columns is refused by
   both heuristics, by the ranks and by the state they plan on. *)
let test_raw_columns_rejected () =
  let g, durations = three_pool_problem 3 in
  let with_entry w =
    let d = Array.map Array.copy durations in
    d.(1).(0) <- w;
    (Printf.sprintf "duration %h" w, d)
  in
  let short =
    let d = Array.map Array.copy durations in
    d.(2) <- Array.sub d.(2) 0 (Dag.n_tasks g - 1);
    ("a short column", d)
  in
  List.iter
    (fun (what, durations) ->
      raises ("memheft " ^ what) (fun () -> Heuristics.memheft ~durations g (three_pool ()));
      raises ("memminmin " ^ what) (fun () -> Heuristics.memminmin ~durations g (three_pool ()));
      raises ("ranks " ^ what) (fun () -> Rank.upward_ranks ~durations g);
      raises ("state " ^ what) (fun () -> Sched_state.create ~durations g (three_pool ())))
    (short
     :: ("zero columns", [||])
     :: List.map with_entry [ Float.nan; Float.infinity; Float.neg_infinity; -1. ])

(* ------------------------------------------------------------ validator --- *)

let test_mvalidate_rejects () =
  let g = Toy.dex () in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:5. ~m_red:5. in
  let s = Schedule.create g in
  (* all tasks at time 0 on proc 0: precedence + overlap violations *)
  check_bool "rejected" true
    (Result.is_error (Mschedule.validate g ~durations:(Dag.default_durations g) p s))

(* ---------------------------------------------------- dual-only layers --- *)

(* The blue/red layers must refuse a 3-pool platform loudly rather than drop
   pool 2. *)
let test_dual_layers_refuse_three_pools () =
  let problem = three_pool_problem 5 in
  let g = fst problem in
  let p = three_pool ~caps:[ 1000.; 1000.; 1000. ] () in
  let s = Result.get_ok (memheft problem p) in
  raises "Validator.validate" (fun () -> Validator.validate g p s);
  raises "Events.memory_trace" (fun () -> Events.memory_trace g p s);
  raises "Wire request encoding" (fun () ->
      Wire.encode_message
        (Wire.Request
           { Wire.id = 1L; algo = Wire.Heuristic Heuristics.MemHEFT; seed = 0L; restarts = 0;
             node_limit = 0; platform = p; dag = g }))

let () =
  Alcotest.run "multi"
    [ ( "mplatform",
        [ Alcotest.test_case "basics" `Quick test_mplatform_basics;
          Alcotest.test_case "rejects" `Quick test_mplatform_rejects;
          Alcotest.test_case "of_dual" `Quick test_mplatform_of_dual;
          Alcotest.test_case "with_capacities" `Quick test_mplatform_with_capacities ] );
      ("durations", [ Alcotest.test_case "dual default" `Quick test_default_durations ]);
      ("consistency", [ dual_consistency ]);
      ( "three-pools",
        [ three_pool_validity;
          three_pool_bounds_respected;
          Alcotest.test_case "feasible case" `Quick test_three_pool_feasible_case;
          Alcotest.test_case "infeasible case" `Quick test_three_pool_infeasible_case;
          Alcotest.test_case "oblivious wrapper" `Quick test_heft_unbounded;
          Alcotest.test_case "fast third pool helps" `Quick test_more_pools_help;
          Alcotest.test_case "durations match pools" `Quick test_durations_must_match_pools;
          Alcotest.test_case "raw columns rejected" `Quick test_raw_columns_rejected ] );
      ("validator", [ Alcotest.test_case "rejects" `Quick test_mvalidate_rejects ]);
      ( "dual-views",
        [ Alcotest.test_case "refuse a 3-pool platform" `Quick test_dual_layers_refuse_three_pools ] ) ]
