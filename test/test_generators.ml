(* Tests for the workload generators: toy graphs, DAGGEN-style random DAGs,
   the kernel model, broadcast pipelining, tiled LU and Cholesky. *)

open Helpers

(* ----------------------------------------------------------------- toy --- *)

let test_dex_values () =
  let g = Toy.dex () in
  check_int "tasks" 4 (Dag.n_tasks g);
  check_int "edges" 4 (Dag.n_edges g);
  check_float "W1(1)" 3. (Dag.task g 0).Dag.w_blue;
  check_float "W2(1)" 1. (Dag.task g 0).Dag.w_red;
  check_float "W1(3)" 6. (Dag.task g 2).Dag.w_blue;
  let e = Option.get (Dag.find_edge g ~src:0 ~dst:2) in
  check_float "F(1,3)" 2. e.Dag.size;
  check_float "C(1,3)" 1. e.Dag.comm

let test_chain () =
  let g = Toy.chain ~n:5 ~w:2. ~f:3. ~c:1. in
  check_int "tasks" 5 (Dag.n_tasks g);
  check_int "edges" 4 (Dag.n_edges g);
  Alcotest.(check (list int)) "single source" [ 0 ] (Dag.sources g);
  Alcotest.(check (list int)) "single sink" [ 4 ] (Dag.sinks g);
  check_float "critical path" 10. (Dag.critical_path_min g)

let test_fork_join () =
  let g = Toy.fork_join ~width:4 ~w:1. ~f:1. ~c:1. in
  check_int "tasks" 6 (Dag.n_tasks g);
  check_int "edges" 8 (Dag.n_edges g);
  check_int "fork out-degree" 4 (Dag.Csr.out_degree g 0)

let test_diamond () =
  let g = Toy.diamond () in
  check_int "tasks" 4 (Dag.n_tasks g);
  check_float "cp" 3. (Dag.critical_path_min g)

let test_independent () =
  let g = Toy.independent ~n:7 ~w_blue:1. ~w_red:2. in
  check_int "no edges" 0 (Dag.n_edges g);
  check_int "all sources" 7 (List.length (Dag.sources g))

let test_toy_rejects () =
  Alcotest.check_raises "chain n=0" (Invalid_argument "Toy.chain: n must be positive") (fun () ->
      ignore (Toy.chain ~n:0 ~w:1. ~f:1. ~c:1.))

(* -------------------------------------------------------------- daggen --- *)

let test_daggen_size () =
  let g = Daggen.generate (Rng.create 1) Daggen.small_rand_params in
  check_int "exact size" 30 (Dag.n_tasks g)

let test_daggen_deterministic () =
  let a = Daggen.generate (Rng.create 5) Daggen.small_rand_params in
  let b = Daggen.generate (Rng.create 5) Daggen.small_rand_params in
  check_string "identical graphs" (Dag.to_string a) (Dag.to_string b)

let test_daggen_seeds_differ () =
  let a = Daggen.generate (Rng.create 5) Daggen.small_rand_params in
  let b = Daggen.generate (Rng.create 6) Daggen.small_rand_params in
  check_bool "different" true (Dag.to_string a <> Dag.to_string b)

let test_daggen_rejects () =
  let bad p = try ignore (Daggen.generate (Rng.create 1) p); false with Invalid_argument _ -> true in
  check_bool "size 0" true (bad { Daggen.small_rand_params with Daggen.size = 0 });
  check_bool "width 0" true (bad { Daggen.small_rand_params with Daggen.width = 0. });
  check_bool "width > 1" true (bad { Daggen.small_rand_params with Daggen.width = 1.5 });
  check_bool "density > 1" true (bad { Daggen.small_rand_params with Daggen.density = 1.5 });
  check_bool "jumps 0" true (bad { Daggen.small_rand_params with Daggen.jumps = 0 })

let test_daggen_levels () =
  let widths = Daggen.levels (Rng.create 3) Daggen.small_rand_params in
  check_int "widths sum to size" 30 (List.fold_left ( + ) 0 widths);
  check_bool "all positive" true (List.for_all (fun w -> w > 0) widths)

let daggen_cost_ranges =
  qtest ~count:40 "costs drawn in the configured ranges" seed_arb (fun seed ->
      let g = Daggen.generate (Rng.create seed) Daggen.small_rand_params in
      Array.for_all
        (fun (t : Dag.task) ->
          t.Dag.w_blue >= 1. && t.Dag.w_blue <= 20. && t.Dag.w_red >= 1. && t.Dag.w_red <= 20.)
        (Dag.tasks g)
      && Array.for_all
           (fun (e : Dag.edge) -> e.Dag.size >= 1. && e.Dag.size <= 10. && e.Dag.comm >= 1. && e.Dag.comm <= 10.)
           (Dag.edges g))

let daggen_connected_levels =
  qtest ~count:40 "every non-first-level task has a parent" seed_arb (fun seed ->
      let g = Daggen.generate (Rng.create seed) Daggen.small_rand_params in
      (* sources are exactly the first level: every other task has >= 1
         parent by construction. *)
      List.for_all (fun i -> Dag.Csr.in_degree g i > 0 || List.mem i (Dag.sources g))
        (List.init (Dag.n_tasks g) Fun.id))

(* ------------------------------------------------------------- kernels --- *)

let test_kernel_table1 () =
  (* Table 1 of the paper, CPU column. *)
  check_float "getrf" 450. (Kernels.cpu_ms Kernels.Getrf);
  check_float "gemm" 1450. (Kernels.cpu_ms Kernels.Gemm);
  check_float "trsm_l" 990. (Kernels.cpu_ms Kernels.Trsm_l);
  check_float "trsm_u" 830. (Kernels.cpu_ms Kernels.Trsm_u);
  check_float "potrf" 450. (Kernels.cpu_ms Kernels.Potrf);
  check_float "syrk" 990. (Kernels.cpu_ms Kernels.Syrk);
  check_float "fictitious free" 0. (Kernels.cpu_ms Kernels.Fictitious);
  check_float "transfer" 50. Kernels.tile_transfer_ms;
  check_float "tile" 1. Kernels.tile_size

let test_kernel_affinities () =
  (* Update kernels prefer the GPU; panel factorisations prefer the CPU. *)
  List.iter
    (fun k -> check_bool "gpu faster" true (Kernels.gpu_ms k < Kernels.cpu_ms k))
    [ Kernels.Gemm; Kernels.Trsm_l; Kernels.Trsm_u; Kernels.Syrk ];
  List.iter
    (fun k -> check_bool "cpu faster" true (Kernels.cpu_ms k < Kernels.gpu_ms k))
    [ Kernels.Getrf; Kernels.Potrf ]

(* ----------------------------------------------------------- broadcast --- *)

let wide_producer d = star d

let test_broadcast_pipeline_shape () =
  let g = Broadcast.linearize (wide_producer 5) in
  (* d consumers need d - 1 relays; every out-degree is at most 2 and the
     producer's is 1. *)
  check_int "relays" 4 (Broadcast.n_fictitious g);
  check_int "producer fanout" 1 (Dag.Csr.out_degree g 0);
  for i = 0 to Dag.n_tasks g - 1 do
    check_bool "fanout bounded" true (Dag.Csr.out_degree g i <= 2)
  done;
  (* Consumers are all reachable: they still have exactly one input file of
     the original size. *)
  for i = 1 to 5 do
    check_float "consumer input" 2. (Dag.in_size g i)
  done

let test_broadcast_small_fanout_untouched () =
  let g0 = wide_producer 1 in
  let g = Broadcast.linearize g0 in
  check_int "no relays" 0 (Broadcast.n_fictitious g);
  check_int "same edges" (Dag.n_edges g0) (Dag.n_edges g)

let test_broadcast_fanout2 () =
  let g = Broadcast.linearize (wide_producer 2) in
  (* One relay feeding both consumers. *)
  check_int "one relay" 1 (Broadcast.n_fictitious g);
  check_bool "relay has zero work" true
    (let relay = Option.get (List.find_opt (Broadcast.is_fictitious g) (List.init (Dag.n_tasks g) Fun.id)) in
     Float.equal (Dag.task g relay).Dag.w_blue 0.)

let test_broadcast_rejects_heterogeneous () =
  (* Two outgoing files with different sizes: not a broadcast. *)
  let g =
    build_dag
      ~tasks:[ ("src", 1., 1.); ("c1", 1., 1.); ("c2", 1., 1.) ]
      ~edges:[ (0, 1, 1., 1.); (0, 2, 2., 1.) ]
  in
  check_bool "rejected" true
    (try ignore (Broadcast.linearize g); false with Invalid_argument _ -> true)

let broadcast_preserves_reachability =
  qtest ~count:30 "pipelining preserves consumer sets" (QCheck.int_range 2 12) (fun d ->
      let g = Broadcast.linearize (wide_producer d) in
      (* every original consumer (ids 1..d) is reachable from the source *)
      let reachable = Array.make (Dag.n_tasks g) false in
      let rec dfs i =
        if not reachable.(i) then begin
          reachable.(i) <- true;
          List.iter dfs (children g i)
        end
      in
      dfs 0;
      List.for_all (fun i -> reachable.(i)) (List.init d (fun k -> k + 1)))

(* ------------------------------------------------------- LU / Cholesky --- *)

let test_lu_counts () =
  check_int "n=1" 1 (Lu.n_kernel_tasks ~n:1);
  check_int "n=2" 5 (Lu.n_kernel_tasks ~n:2);
  check_int "n=3" 14 (Lu.n_kernel_tasks ~n:3);
  let g = Lu.generate ~pipeline_broadcasts:false ~n:3 () in
  check_int "generated matches formula" (Lu.n_kernel_tasks ~n:3) (Dag.n_tasks g);
  check_int "tiles" 9 (Lu.n_tiles ~n:3)

let test_cholesky_counts () =
  check_int "n=1" 1 (Cholesky.n_kernel_tasks ~n:1);
  check_int "n=2" 4 (Cholesky.n_kernel_tasks ~n:2);
  check_int "n=3" 10 (Cholesky.n_kernel_tasks ~n:3);
  let g = Cholesky.generate ~pipeline_broadcasts:false ~n:3 () in
  check_int "generated matches formula" (Cholesky.n_kernel_tasks ~n:3) (Dag.n_tasks g);
  check_int "lower tiles" 6 (Cholesky.n_lower_tiles ~n:3)

let test_lu_structure () =
  let g = Lu.generate ~n:4 () in
  (* getrf_0 is the unique source even after pipelining. *)
  Alcotest.(check (list string)) "single source" [ "getrf_0" ]
    (List.map (fun i -> (Dag.task g i).Dag.name) (Dag.sources g));
  (* every edge carries one tile and one transfer slot *)
  Array.iter
    (fun (e : Dag.edge) ->
      check_float "tile size" 1. e.Dag.size;
      check_float "transfer" 50. e.Dag.comm)
    (Dag.edges g)

let test_cholesky_structure () =
  let g = Cholesky.generate ~n:4 () in
  Alcotest.(check (list string)) "single source" [ "potrf_0" ]
    (List.map (fun i -> (Dag.task g i).Dag.name) (Dag.sources g));
  check_bool "has relays" true (Broadcast.n_fictitious g > 0)

let test_cholesky_schedulable () =
  (* End-to-end: the generated DAG is schedulable and the dependency
     structure forces potrf_k after the updates of step k-1. *)
  let g = Cholesky.generate ~n:3 () in
  let p = Platform.unbounded ~p_blue:2 ~p_red:1 in
  let s = Heuristics.heft g p in
  ignore (validate_ok g p s);
  let find name =
    let rec go i =
      if i >= Dag.n_tasks g then Alcotest.failf "task %s not found" name
      else if (Dag.task g i).Dag.name = name then i
      else go (i + 1)
    in
    go 0
  in
  let potrf1 = find "potrf_1" and syrk10 = find "syrk_1_0" in
  check_bool "potrf_1 after syrk_1_0" true
    (s.Schedule.starts.(potrf1) >= s.Schedule.starts.(syrk10) +. Schedule.duration g p s syrk10 -. 1e-9)

let test_tiled_rejects () =
  Alcotest.check_raises "lu n=0" (Invalid_argument "Lu.generate: n must be positive") (fun () ->
      ignore (Lu.generate ~n:0 ()));
  Alcotest.check_raises "cholesky n=0" (Invalid_argument "Cholesky.generate: n must be positive")
    (fun () -> ignore (Cholesky.generate ~n:0 ()))

let lu_acyclic_and_schedulable =
  qtest ~count:8 "LU graphs schedule cleanly" (QCheck.int_range 2 6) (fun n ->
      let g = Lu.generate ~n () in
      let p = Platform.unbounded ~p_blue:3 ~p_red:2 in
      let s = Heuristics.heft g p in
      Result.is_ok (Validator.validate g p s))

let () =
  Alcotest.run "generators"
    [ ( "toy",
        [ Alcotest.test_case "dex values (Figure 2)" `Quick test_dex_values;
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "fork-join" `Quick test_fork_join;
          Alcotest.test_case "diamond" `Quick test_diamond;
          Alcotest.test_case "independent" `Quick test_independent;
          Alcotest.test_case "rejects" `Quick test_toy_rejects ] );
      ( "daggen",
        [ Alcotest.test_case "size" `Quick test_daggen_size;
          Alcotest.test_case "deterministic" `Quick test_daggen_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_daggen_seeds_differ;
          Alcotest.test_case "rejects bad params" `Quick test_daggen_rejects;
          Alcotest.test_case "level widths" `Quick test_daggen_levels;
          daggen_cost_ranges;
          daggen_connected_levels ] );
      ( "kernels",
        [ Alcotest.test_case "Table 1 values" `Quick test_kernel_table1;
          Alcotest.test_case "affinities" `Quick test_kernel_affinities ] );
      ( "broadcast",
        [ Alcotest.test_case "pipeline shape" `Quick test_broadcast_pipeline_shape;
          Alcotest.test_case "small fanout untouched" `Quick test_broadcast_small_fanout_untouched;
          Alcotest.test_case "fanout 2" `Quick test_broadcast_fanout2;
          Alcotest.test_case "rejects heterogeneous" `Quick test_broadcast_rejects_heterogeneous;
          broadcast_preserves_reachability ] );
      ( "tiled",
        [ Alcotest.test_case "LU counts" `Quick test_lu_counts;
          Alcotest.test_case "Cholesky counts" `Quick test_cholesky_counts;
          Alcotest.test_case "LU structure" `Quick test_lu_structure;
          Alcotest.test_case "Cholesky structure" `Quick test_cholesky_structure;
          Alcotest.test_case "Cholesky dependencies" `Quick test_cholesky_schedulable;
          Alcotest.test_case "rejects n=0" `Quick test_tiled_rejects;
          lu_acyclic_and_schedulable ] ) ]
