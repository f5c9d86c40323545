(* The DAG arena (CSR / SoA arrays) versus a list oracle.

   The oracle is rebuilt here from the insertion-order edge sequence
   ([Dag.edge g k] for k = 0, 1, ...): a task's outgoing and incoming edge
   lists, in eid order, are the specification of its CSR rows.  The property
   tests check full structural agreement — including float-exact in/out size
   aggregates, whose fold order the CSR build must replicate — over the
   differential fuzzer's DAG families, plus the builder/platform input
   guards, duplicate rejection, the arena's retained size and construction
   at scale. *)

open Helpers

let check_int_list msg = Alcotest.(check (list int)) msg

(* Outgoing and incoming edge lists per task, in eid order. *)
let list_oracle g =
  let n = Dag.n_tasks g in
  let succ = Array.make n [] and pred = Array.make n [] in
  for k = Dag.n_edges g - 1 downto 0 do
    let e = Dag.edge g k in
    succ.(e.Dag.src) <- e :: succ.(e.Dag.src);
    pred.(e.Dag.dst) <- e :: pred.(e.Dag.dst)
  done;
  (succ, pred)

(* Structural A/B between the CSR arrays and the list oracle. *)
let check_csr_equiv g =
  let n = Dag.n_tasks g and m = Dag.n_edges g in
  let succ, pred = list_oracle g in
  let succ_off = Dag.Csr.succ_off g
  and succ_eid = Dag.Csr.succ_eid g
  and succ_dst = Dag.Csr.succ_dst g
  and pred_off = Dag.Csr.pred_off g
  and pred_eid = Dag.Csr.pred_eid g
  and pred_src = Dag.Csr.pred_src g in
  check_int "succ_off length" (n + 1) (Array.length succ_off);
  check_int "pred_off length" (n + 1) (Array.length pred_off);
  check_int "succ_off total" m succ_off.(n);
  check_int "pred_off total" m pred_off.(n);
  let e_src = Dag.Csr.e_src g
  and e_dst = Dag.Csr.e_dst g
  and e_size = Dag.Csr.e_size g
  and e_comm = Dag.Csr.e_comm g in
  for eid = 0 to m - 1 do
    let e = Dag.edge g eid in
    check_int "eid" eid e.Dag.eid;
    check_int "e_src" e.Dag.src e_src.(eid);
    check_int "e_dst" e.Dag.dst e_dst.(eid);
    check_float "e_size" e.Dag.size e_size.(eid);
    check_float "e_comm" e.Dag.comm e_comm.(eid)
  done;
  let w_blue = Dag.Csr.w_blue g and w_red = Dag.Csr.w_red g in
  let in_sz = Dag.Csr.in_sz g and out_sz = Dag.Csr.out_sz g in
  let max_in = ref 0 in
  for i = 0 to n - 1 do
    let t = Dag.task g i in
    check_float "w_blue" t.Dag.w_blue w_blue.(i);
    check_float "w_red" t.Dag.w_red w_red.(i);
    let row off eid_arr = Array.to_list (Array.sub eid_arr off.(i) (off.(i + 1) - off.(i))) in
    let succ_row = row succ_off succ_eid and pred_row = row pred_off pred_eid in
    check_int_list "succ eids" (List.map (fun e -> e.Dag.eid) succ.(i)) succ_row;
    check_int_list "pred eids" (List.map (fun e -> e.Dag.eid) pred.(i)) pred_row;
    check_int_list "succ dsts" (List.map (fun e -> e.Dag.dst) succ.(i)) (row succ_off succ_dst);
    check_int_list "pred srcs" (List.map (fun e -> e.Dag.src) pred.(i)) (row pred_off pred_src);
    check_int_list "children" (List.map (fun e -> e.Dag.dst) succ.(i)) (children g i);
    check_int_list "parents" (List.map (fun e -> e.Dag.src) pred.(i)) (parents g i);
    (* Left folds in eid order: exact equality. *)
    let sum edges = List.fold_left (fun acc e -> acc +. e.Dag.size) 0. edges in
    if not (Float.equal (sum pred.(i)) in_sz.(i)) then
      Alcotest.failf "in_sz mismatch at task %d" i;
    if not (Float.equal (sum succ.(i)) out_sz.(i)) then
      Alcotest.failf "out_sz mismatch at task %d" i;
    check_int "in_degree" (List.length pred.(i)) (Dag.Csr.in_degree g i);
    check_int "out_degree" (List.length succ.(i)) (Dag.Csr.out_degree g i);
    List.iter
      (fun e ->
        match Dag.find_edge g ~src:i ~dst:e.Dag.dst with
        | Some f -> check_int "find_edge eid" e.Dag.eid f.Dag.eid
        | None -> Alcotest.failf "find_edge %d->%d missed" i e.Dag.dst)
      succ.(i);
    if Dag.Csr.in_degree g i > !max_in then max_in := Dag.Csr.in_degree g i
  done;
  check_int "max_in_degree" !max_in (Dag.Csr.max_in_degree g);
  (* Topological layers: sources at 0, every other task one past its deepest
     parent; the grouped index lists exactly the tasks of each layer. *)
  let layer_of = Dag.Csr.layer_of g
  and layer_off = Dag.Csr.layer_off g
  and layer_tasks = Dag.Csr.layer_tasks g in
  let n_layers = Dag.Csr.n_layers g in
  check_int "layer_off length" (n_layers + 1) (Array.length layer_off);
  check_int "layer_tasks length" n (Array.length layer_tasks);
  for i = 0 to n - 1 do
    let expect =
      List.fold_left (fun acc e -> max acc (layer_of.(e.Dag.src) + 1)) 0 pred.(i)
    in
    check_int "layer_of" expect layer_of.(i)
  done;
  for l = 0 to n_layers - 1 do
    for k = layer_off.(l) to layer_off.(l + 1) - 1 do
      check_int "layer grouping" l layer_of.(layer_tasks.(k));
      if k > layer_off.(l) && layer_tasks.(k - 1) >= layer_tasks.(k) then
        Alcotest.failf "layer %d tasks not ascending" l
    done
  done

let csr_fuzz_property =
  qtest ~count:60 "CSR = list adjacency on fuzz families" seed_arb (fun seed ->
      let inst = Fuzz_gen.instance (Rng.create seed) in
      check_csr_equiv inst.Fuzz_instance.dag;
      true)

let test_csr_kernels () =
  check_csr_equiv (Lu.generate ~n:8 ());
  check_csr_equiv (Lu.generate ~pipeline_broadcasts:false ~n:8 ());
  check_csr_equiv (Cholesky.generate ~n:8 ());
  check_csr_equiv (star 7);
  check_csr_equiv (build_dag ~tasks:[ ("solo", 1., 2.) ] ~edges:[])

(* {2 Non-finite input rejection} *)

let expect_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: accepted a non-finite value" msg

let test_builder_rejects_non_finite () =
  let fresh () = Dag.Builder.create () in
  expect_invalid "add_task nan w_blue" (fun () ->
      Dag.Builder.add_task (fresh ()) ~w_blue:nan ~w_red:1. ());
  expect_invalid "add_task nan w_red" (fun () ->
      Dag.Builder.add_task (fresh ()) ~w_blue:1. ~w_red:nan ());
  expect_invalid "add_task inf w_blue" (fun () ->
      Dag.Builder.add_task (fresh ()) ~w_blue:infinity ~w_red:1. ());
  expect_invalid "add_task -inf w_red" (fun () ->
      Dag.Builder.add_task (fresh ()) ~w_blue:1. ~w_red:neg_infinity ());
  let two_tasks () =
    let b = fresh () in
    ignore (Dag.Builder.add_task b ~w_blue:1. ~w_red:1. ());
    ignore (Dag.Builder.add_task b ~w_blue:1. ~w_red:1. ());
    b
  in
  expect_invalid "add_edge nan size" (fun () ->
      Dag.Builder.add_edge (two_tasks ()) ~src:0 ~dst:1 ~size:nan ~comm:0.);
  expect_invalid "add_edge inf size" (fun () ->
      Dag.Builder.add_edge (two_tasks ()) ~src:0 ~dst:1 ~size:infinity ~comm:0.);
  expect_invalid "add_edge nan comm" (fun () ->
      Dag.Builder.add_edge (two_tasks ()) ~src:0 ~dst:1 ~size:1. ~comm:nan);
  expect_invalid "add_edge inf comm" (fun () ->
      Dag.Builder.add_edge (two_tasks ()) ~src:0 ~dst:1 ~size:1. ~comm:infinity);
  (* Historical guards still hold alongside the finite checks. *)
  expect_invalid "add_task negative" (fun () ->
      Dag.Builder.add_task (fresh ()) ~w_blue:(-1.) ~w_red:1. ());
  expect_invalid "add_edge negative" (fun () ->
      Dag.Builder.add_edge (two_tasks ()) ~src:0 ~dst:1 ~size:(-1.) ~comm:0.)

(* A rejected edge leaves the builder as it was: the next accepted edge
   takes the next eid and finalize succeeds.  Daggen relies on this when it
   catches a duplicate and goes on. *)
let test_rejected_edge_leaves_builder () =
  let b = Dag.Builder.create () in
  for _ = 1 to 3 do
    ignore (Dag.Builder.add_task b ~w_blue:1. ~w_red:1. ())
  done;
  Dag.Builder.add_edge b ~src:0 ~dst:1 ~size:1. ~comm:2.;
  Alcotest.check_raises "duplicate" (Invalid_argument "Dag.Builder.add_edge: duplicate edge")
    (fun () -> Dag.Builder.add_edge b ~src:0 ~dst:1 ~size:5. ~comm:6.);
  expect_invalid "dangling" (fun () -> Dag.Builder.add_edge b ~src:0 ~dst:3 ~size:1. ~comm:1.);
  expect_invalid "nan after dedup key" (fun () ->
      Dag.Builder.add_edge b ~src:1 ~dst:2 ~size:nan ~comm:1.);
  Dag.Builder.add_edge b ~src:1 ~dst:2 ~size:3. ~comm:4.;
  let g = Dag.Builder.finalize b in
  check_int "n_edges" 2 (Dag.n_edges g);
  let e = Dag.edge g 1 in
  check_int "next eid src" 1 e.Dag.src;
  check_int "next eid dst" 2 e.Dag.dst;
  check_float "next eid size" 3. e.Dag.size;
  check_float "kept edge size" 1. (Dag.edge g 0).Dag.size;
  check_float "in_size" 1. (Dag.in_size g 1);
  check_int "row" 1 (Dag.Csr.out_degree g 0)

let test_platform_rejects_nan () =
  expect_invalid "m_blue nan" (fun () ->
      Platform.make ~p_blue:1 ~p_red:1 ~m_blue:nan ~m_red:1.);
  expect_invalid "m_red nan" (fun () ->
      Platform.make ~p_blue:1 ~p_red:1 ~m_blue:1. ~m_red:nan);
  (* An infinite capacity means "unbounded" and stays legal. *)
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:infinity ~m_red:infinity in
  check_float "inf cap kept" infinity (Platform.capacity p Platform.Blue)

(* {2 100k-task construction smoke}

   A layered mesh of 1000 x 100 tasks (each wired to two tasks of the next
   layer): building and finalising it must stay linear in tasks + edges.
   The allocation bound is generous per element but far below anything a
   quadratic construction would allocate. *)

let test_build_100k () =
  let layers = 1000 and width = 100 in
  let n = layers * width in
  let b = Dag.Builder.create () in
  for _ = 1 to n do
    ignore (Dag.Builder.add_task b ~w_blue:1. ~w_red:2. ())
  done;
  for l = 0 to layers - 2 do
    for k = 0 to width - 1 do
      let src = (l * width) + k in
      Dag.Builder.add_edge b ~src ~dst:(((l + 1) * width) + k) ~size:1. ~comm:1.;
      Dag.Builder.add_edge b
        ~src
        ~dst:(((l + 1) * width) + ((k + 1) mod width))
        ~size:2. ~comm:1.
    done
  done;
  let before = Gc.allocated_bytes () in
  let g = Dag.Builder.finalize b in
  let allocated = Gc.allocated_bytes () -. before in
  check_int "n_tasks" n (Dag.n_tasks g);
  check_int "n_edges" (2 * width * (layers - 1)) (Dag.n_edges g);
  check_int "n_layers" layers (Dag.Csr.n_layers g);
  check_int "max_in_degree" 2 (Dag.Csr.max_in_degree g);
  let elems = float_of_int (Dag.n_tasks g + Dag.n_edges g) in
  if allocated > 2000. *. elems then
    Alcotest.failf "finalize allocated %.0f bytes (%.0f per task+edge)" allocated
      (allocated /. elems)

(* The arena is the graph's only copy: no records, lists or hash tables are
   retained beside the arrays. *)
let test_retained_words () =
  let g = Lu.generate ~pipeline_broadcasts:false ~n:40 () in
  let per_task = float_of_int (Obj.reachable_words (Obj.repr g)) /. float_of_int (Dag.n_tasks g) in
  if per_task > 45. then Alcotest.failf "LU n=40 retains %.1f words per task (bound 45)" per_task

(* One source feeding 100 000 children: duplicate detection must not scan
   the source's row, which would make this 5e9 comparisons.  The alarm is a
   watchdog only; the build takes milliseconds. *)
let test_fan_out_100k () =
  let d = 100_000 in
  let b = Dag.Builder.create () in
  for _ = 0 to d do
    ignore (Dag.Builder.add_task b ~w_blue:1. ~w_red:1. ())
  done;
  let exception Timeout in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timeout)) in
  ignore (Unix.alarm 5);
  let outcome =
    match
      for c = 1 to d do
        Dag.Builder.add_edge b ~src:0 ~dst:c ~size:1. ~comm:1.
      done;
      Dag.Builder.add_edge b ~src:0 ~dst:d ~size:1. ~comm:1.
    with
    | () -> Some "duplicate of the last child accepted"
    | exception Invalid_argument _ -> None
    | exception Timeout -> Some "100k-child fan-out did not build within 5 s"
  in
  ignore (Unix.alarm 0);
  Sys.set_signal Sys.sigalrm previous;
  Option.iter Alcotest.fail outcome;
  let g = Dag.Builder.finalize b in
  check_int "out_degree" d (Dag.Csr.out_degree g 0);
  check_int "n_layers" 2 (Dag.Csr.n_layers g);
  check_int "last child eid" (d - 1) (Option.get (Dag.find_edge g ~src:0 ~dst:d)).Dag.eid

let () =
  Alcotest.run "csr"
    [ ( "adjacency",
        [ csr_fuzz_property; Alcotest.test_case "kernel families" `Quick test_csr_kernels ] );
      ( "validation",
        [ Alcotest.test_case "builder non-finite" `Quick test_builder_rejects_non_finite;
          Alcotest.test_case "platform nan" `Quick test_platform_rejects_nan;
          Alcotest.test_case "rejected edge leaves builder" `Quick
            test_rejected_edge_leaves_builder ] );
      ( "scale",
        [ Alcotest.test_case "100k-task build" `Quick test_build_100k;
          Alcotest.test_case "LU n=40 retained words" `Quick test_retained_words;
          Alcotest.test_case "100k-child fan-out" `Quick test_fan_out_100k ] ) ]
