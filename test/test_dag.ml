(* Tests for the DAG substrate: builder, accessors, orders, serialisation. *)

open Helpers

let dex = Toy.dex ()

(* ------------------------------------------------------------ builder --- *)

let test_builder_basic () =
  let b = Dag.Builder.create () in
  let a = Dag.Builder.add_task b ~name:"a" ~w_blue:1. ~w_red:2. () in
  let c = Dag.Builder.add_task b ~w_blue:3. ~w_red:4. () in
  Dag.Builder.add_edge b ~src:a ~dst:c ~size:5. ~comm:6.;
  let g = Dag.Builder.finalize b in
  check_int "n_tasks" 2 (Dag.n_tasks g);
  check_int "n_edges" 1 (Dag.n_edges g);
  check_string "explicit name" "a" (Dag.task g a).Dag.name;
  check_string "default name" "t1" (Dag.task g c).Dag.name;
  check_float "w_blue" 1. (Dag.task g a).Dag.w_blue;
  let e = Dag.edge g 0 in
  check_float "size" 5. e.Dag.size;
  check_float "comm" 6. e.Dag.comm

let test_builder_rejects_cycle () =
  let b = Dag.Builder.create () in
  let x = Dag.Builder.add_task b ~w_blue:1. ~w_red:1. () in
  let y = Dag.Builder.add_task b ~w_blue:1. ~w_red:1. () in
  Dag.Builder.add_edge b ~src:x ~dst:y ~size:1. ~comm:1.;
  Dag.Builder.add_edge b ~src:y ~dst:x ~size:1. ~comm:1.;
  Alcotest.check_raises "cycle" (Invalid_argument "Dag.Builder.finalize: graph has a cycle")
    (fun () -> ignore (Dag.Builder.finalize b))

let test_builder_rejects_self_loop () =
  let b = Dag.Builder.create () in
  let x = Dag.Builder.add_task b ~w_blue:1. ~w_red:1. () in
  Alcotest.check_raises "self-loop" (Invalid_argument "Dag.Builder.add_edge: self-loop")
    (fun () -> Dag.Builder.add_edge b ~src:x ~dst:x ~size:1. ~comm:1.)

let test_builder_rejects_duplicate () =
  let b = Dag.Builder.create () in
  let x = Dag.Builder.add_task b ~w_blue:1. ~w_red:1. () in
  let y = Dag.Builder.add_task b ~w_blue:1. ~w_red:1. () in
  Dag.Builder.add_edge b ~src:x ~dst:y ~size:1. ~comm:1.;
  Alcotest.check_raises "duplicate" (Invalid_argument "Dag.Builder.add_edge: duplicate edge")
    (fun () -> Dag.Builder.add_edge b ~src:x ~dst:y ~size:2. ~comm:2.)

let test_builder_rejects_dangling () =
  let b = Dag.Builder.create () in
  let x = Dag.Builder.add_task b ~w_blue:1. ~w_red:1. () in
  Alcotest.check_raises "dangling" (Invalid_argument "Dag.Builder.add_edge: dangling endpoint")
    (fun () -> Dag.Builder.add_edge b ~src:x ~dst:7 ~size:1. ~comm:1.)

let test_builder_rejects_negative () =
  let b = Dag.Builder.create () in
  Alcotest.check_raises "negative time" (Invalid_argument "Dag.Builder.add_task: negative time")
    (fun () -> ignore (Dag.Builder.add_task b ~w_blue:(-1.) ~w_red:1. ()))

(* ---------------------------------------------------------- accessors --- *)

let test_children_parents () =
  Alcotest.(check (list int)) "children of T1" [ 1; 2 ] (children dex 0);
  Alcotest.(check (list int)) "parents of T4" [ 1; 2 ] (parents dex 3);
  Alcotest.(check (list int)) "sources" [ 0 ] (Dag.sources dex);
  Alcotest.(check (list int)) "sinks" [ 3 ] (Dag.sinks dex)

let test_find_edge () =
  (match Dag.find_edge dex ~src:0 ~dst:2 with
  | Some e -> check_float "F(1,3)" 2. e.Dag.size
  | None -> Alcotest.fail "edge exists");
  check_bool "absent edge" true (Dag.find_edge dex ~src:3 ~dst:0 = None)

let test_mem_req () =
  (* MemReq(T3) = F(1,3) + F(3,4) = 4 as computed in SS 3.2 of the paper. *)
  check_float "paper example" 4. (Dag.mem_req dex 2);
  check_float "in_size T4" 3. (Dag.in_size dex 3);
  check_float "out_size T1" 3. (Dag.out_size dex 0);
  check_float "total files" 6. (Dag.total_file_size dex)

let test_w_min () =
  check_float "T1 min" 1. (Dag.w_min dex 0);
  check_float "T3 min" 3. (Dag.w_min dex 2)

let test_critical_path () =
  (* min-duration path T1 -> T3 -> T4 = 1 + 3 + 1 = 5. *)
  check_float "critical path" 5. (Dag.critical_path_min dex)

let test_longest_path_weighted () =
  let w = Dag.longest_path dex ~node_weight:(fun i -> (Dag.task dex i).Dag.w_blue)
      ~edge_weight:(fun k -> (Dag.edge dex k).Dag.comm) in
  (* blue times: T1(3) +1+ T3(6) +1+ T4(1) = 12. *)
  check_float "blue path with comms" 12. w

(* --------------------------------------------------------------- topo --- *)

let test_topo_dex () =
  let order = Dag.topological_order dex in
  check_bool "is topological" true (Dag.is_topological dex order)

let test_is_topological_rejects () =
  check_bool "reversed is not" false (Dag.is_topological dex [| 3; 2; 1; 0 |]);
  check_bool "wrong length" false (Dag.is_topological dex [| 0; 1 |]);
  check_bool "duplicate entries" false (Dag.is_topological dex [| 0; 0; 1; 2 |])

let topo_property =
  qtest "topological order of random DAGs" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      Dag.is_topological g (Dag.topological_order g))

(* ------------------------------------------------------ serialisation --- *)

let test_roundtrip_dex () =
  let g = Dag.of_string (Dag.to_string dex) in
  check_int "n" 4 (Dag.n_tasks g);
  check_int "m" 4 (Dag.n_edges g);
  check_float "w preserved" 6. (Dag.task g 2).Dag.w_blue;
  check_string "name preserved" "T3" (Dag.task g 2).Dag.name

let roundtrip_property =
  qtest ~count:50 "serialisation round-trips" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let g' = Dag.of_string (Dag.to_string g) in
      Dag.n_tasks g = Dag.n_tasks g'
      && Dag.n_edges g = Dag.n_edges g'
      && List.for_all
           (fun k ->
             let e = Dag.edge g k and e' = Dag.edge g' k in
             e.Dag.src = e'.Dag.src && e.Dag.dst = e'.Dag.dst && e.Dag.size = e'.Dag.size
             && e.Dag.comm = e'.Dag.comm)
           (List.init (Dag.n_edges g) Fun.id))

let test_of_string_errors () =
  let bad s = try ignore (Dag.of_string s); false with Invalid_argument _ -> true in
  check_bool "empty" true (bad "");
  check_bool "bad header" true (bad "nonsense");
  check_bool "missing tasks" true (bad "dag 2 0\ntask 0 a 1 1\n");
  check_bool "bad edge" true (bad "dag 1 1\ntask 0 a 1 1\nedge 0 zz 1 1\n")

let test_comments_and_blanks () =
  let g = Dag.of_string "# comment\ndag 1 0\n\ntask 0 solo 2 3\n" in
  check_int "parsed" 1 (Dag.n_tasks g)

(* ---------------------------------------------------------------- dot --- *)

let test_to_dot () =
  let dot = Dag.to_dot dex in
  check_bool "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  check_bool "has node" true (contains "T1" dot);
  check_bool "has edge" true (contains "n0 -> n1" dot)

(* -------------------------------------------------------------- paths --- *)

let test_bottom_levels () =
  let bl = Paths.bottom_levels dex ~node_weight:(Dag.w_min dex) ~edge_weight:(fun _ -> 0.) in
  check_float "sink" 1. bl.(3);
  check_float "T3" 4. bl.(2);
  check_float "root = critical path" 5. bl.(0)

let test_top_levels () =
  let tl = Paths.top_levels dex ~node_weight:(Dag.w_min dex) ~edge_weight:(fun _ -> 0.) in
  check_float "root" 0. tl.(0);
  check_float "T4 sees longest prefix" 4. tl.(3)

let test_critical_parent () =
  let bl = Paths.bottom_levels dex ~node_weight:(Dag.w_min dex) ~edge_weight:(fun _ -> 0.) in
  Alcotest.(check (option int)) "T1's critical child is T3" (Some 2)
    (Paths.critical_parent dex ~bottom:bl 0);
  Alcotest.(check (option int)) "sink has none" None (Paths.critical_parent dex ~bottom:bl 3)

let levels_sum_property =
  qtest "bottom levels dominate children" seed_arb (fun seed ->
      let g = dag_of_seed seed in
      let bl = Paths.bottom_levels g ~node_weight:(Dag.w_min g) ~edge_weight:(fun _ -> 0.) in
      Array.for_all
        (fun (e : Dag.edge) -> bl.(e.Dag.src) >= bl.(e.Dag.dst) +. Dag.w_min g e.Dag.src -. 1e-9)
        (Dag.edges g))

(* ------------------------------------------------------------- golden --- *)

(* MD5 of the text format, the DOT rendering and the topological order of
   the paper's kernel families and one large random DAG.  The digests pin the
   graph bytes a build produces: task names and costs, edge ids (insertion
   order) and the smallest-id-first Kahn order. *)
let dag_bytes_golden =
  [ ("lu16", "1da1ca34ca7b966684736eb87983f455", "ace3f8c22dba8d0df7d3ff0148c6dd51",
     "011d4f7de04ef620276f0225dd2d14d5");
    ("lu16-flat", "2738715a01fe60985bceb7232bcd7b34", "b50c0d1cd856d61aa6ad310334015281",
     "bb0bbb6f042f35cd397b792843ca07f8");
    ("cholesky12", "5a817d2267418e148f29b7247235e52d", "a9122636316f216a14466a854e2093be",
     "1939b2adf2b5f2bc9e6c21e51dd4862b");
    ("daggen-large-2014", "be74de4bd67ce7a3259a4c709650befe", "1e0846c9d3f64659ae0bbcea93832492",
     "28854aa8350dd46fbc1027cc140f239b") ]

let golden_dag = function
  | "lu16" -> Lu.generate ~n:16 ()
  | "lu16-flat" -> Lu.generate ~pipeline_broadcasts:false ~n:16 ()
  | "cholesky12" -> Cholesky.generate ~n:12 ()
  | "daggen-large-2014" -> Daggen.generate (Rng.create 2014) Daggen.large_rand_params
  | label -> Alcotest.failf "unknown golden DAG %s" label

let test_dag_bytes_golden () =
  let hex s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (label, text, dot, topo) ->
      let g = golden_dag label in
      let order = Dag.topological_order g |> Array.to_list |> List.map string_of_int in
      check_string (label ^ " to_string") text (hex (Dag.to_string g));
      check_string (label ^ " to_dot") dot (hex (Dag.to_dot g));
      check_string (label ^ " topological order") topo (hex (String.concat "," order)))
    dag_bytes_golden

let () =
  Alcotest.run "dag"
    [ ( "builder",
        [ Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "rejects cycle" `Quick test_builder_rejects_cycle;
          Alcotest.test_case "rejects self-loop" `Quick test_builder_rejects_self_loop;
          Alcotest.test_case "rejects duplicate" `Quick test_builder_rejects_duplicate;
          Alcotest.test_case "rejects dangling" `Quick test_builder_rejects_dangling;
          Alcotest.test_case "rejects negative" `Quick test_builder_rejects_negative ] );
      ( "accessors",
        [ Alcotest.test_case "children/parents" `Quick test_children_parents;
          Alcotest.test_case "find_edge" `Quick test_find_edge;
          Alcotest.test_case "mem_req (paper)" `Quick test_mem_req;
          Alcotest.test_case "w_min" `Quick test_w_min;
          Alcotest.test_case "critical path" `Quick test_critical_path;
          Alcotest.test_case "longest path weighted" `Quick test_longest_path_weighted ] );
      ( "topo",
        [ Alcotest.test_case "dex order" `Quick test_topo_dex;
          Alcotest.test_case "rejects invalid" `Quick test_is_topological_rejects;
          topo_property ] );
      ( "serialisation",
        [ Alcotest.test_case "dex roundtrip" `Quick test_roundtrip_dex;
          roundtrip_property;
          Alcotest.test_case "errors" `Quick test_of_string_errors;
          Alcotest.test_case "comments/blanks" `Quick test_comments_and_blanks ] );
      ("dot", [ Alcotest.test_case "render" `Quick test_to_dot ]);
      ( "paths",
        [ Alcotest.test_case "bottom levels" `Quick test_bottom_levels;
          Alcotest.test_case "top levels" `Quick test_top_levels;
          Alcotest.test_case "critical parent" `Quick test_critical_parent;
          levels_sum_property ] );
      ("golden", [ Alcotest.test_case "DAG bytes" `Quick test_dag_bytes_golden ]) ]
