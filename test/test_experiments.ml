(* Tests for the experiment harness: workloads, sweeps and figure drivers. *)

open Helpers

let tmp_out = Filename.concat (Filename.get_temp_dir_name ()) "memsched_exp_test"

(* ----------------------------------------------------------- workloads --- *)

let test_small_rand_set () =
  let dags = Workloads.small_rand_set ~count:5 () in
  check_int "count" 5 (List.length dags);
  List.iter (fun g -> check_int "size" 30 (Dag.n_tasks g)) dags

let test_sets_deterministic () =
  let a = Workloads.small_rand_set ~count:3 () and b = Workloads.small_rand_set ~count:3 () in
  List.iter2 (fun x y -> check_string "same" (Dag.to_string x) (Dag.to_string y)) a b

let test_tiny_set () =
  List.iter (fun g -> check_int "size 10" 10 (Dag.n_tasks g)) (Workloads.tiny_rand_set ~count:3 ())

let test_large_set_scalable () =
  List.iter (fun g -> check_int "size" 50 (Dag.n_tasks g)) (Workloads.large_rand_set ~count:2 ~size:50 ())

let test_platforms () =
  check_int "random platform procs" 4 (Platform.n_procs Workloads.platform_random);
  check_int "mirage procs" 15 (Platform.n_procs Workloads.platform_mirage);
  check_int "mirage gpus" 3 (Platform.n_procs_of Workloads.platform_mirage Platform.Red)

(* --------------------------------------------------------------- sweep --- *)

let baseline_of_seed seed =
  Sweep.baseline Workloads.platform_random (dag_of_seed ~size:20 seed)

let test_baseline_fields () =
  let b = baseline_of_seed 3 in
  check_bool "positive makespan" true (b.Sweep.heft_makespan > 0.);
  check_bool "positive peak" true (b.Sweep.heft_peak > 0.);
  check_bool "lower bound below heft" true (b.Sweep.lower_bound <= b.Sweep.heft_makespan +. 1e-9);
  check_bool "minmin present" true (b.Sweep.minmin_makespan > 0.)

let test_run_bounded_at_full_memory () =
  (* At the HEFT planned peak, MemHEFT replays HEFT: ratio exactly 1. *)
  let b = baseline_of_seed 4 in
  let m = Sweep.run_bounded Workloads.platform_random b Heuristics.MemHEFT ~bound:b.Sweep.heft_peak in
  check_bool "feasible" true m.Sweep.feasible;
  check_float "ratio 1" 1. m.Sweep.ratio

let test_run_bounded_infeasible () =
  let b = baseline_of_seed 4 in
  let m = Sweep.run_bounded Workloads.platform_random b Heuristics.MemMinMin ~bound:1. in
  check_bool "infeasible at 1 unit" false m.Sweep.feasible;
  check_bool "nan ratio" true (Float.is_nan m.Sweep.ratio)

let test_normalized_sweep_shape () =
  let baselines = List.map baseline_of_seed [ 1; 2; 3 ] in
  let alphas = [ 0.5; 1.0 ] in
  let aggs =
    Sweep.normalized_sweep Workloads.platform_random ~alphas Heuristics.MemHEFT baselines
  in
  check_int "one aggregate per alpha" 2 (List.length aggs);
  let last = List.nth aggs 1 in
  check_float "alpha recorded" 1.0 last.Sweep.alpha;
  check_float "all succeed at full memory" 1.0 last.Sweep.success_rate;
  check_float "ratio 1 at full memory" 1.0 last.Sweep.mean_ratio

let test_success_monotone () =
  (* More memory can only help: success rates are non-decreasing in alpha. *)
  let baselines = List.map baseline_of_seed [ 1; 2; 3; 4; 5; 6 ] in
  let alphas = [ 0.4; 0.6; 0.8; 1.0 ] in
  List.iter
    (fun h ->
      let aggs = Sweep.normalized_sweep Workloads.platform_random ~alphas h baselines in
      let rates = List.map (fun a -> a.Sweep.success_rate) aggs in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      check_bool "monotone" true (mono rates))
    [ Heuristics.MemHEFT; Heuristics.MemMinMin ]

let test_exact_sweep_tiny () =
  let baselines = [ Sweep.baseline Workloads.platform_random (dag_of_seed ~size:6 1) ] in
  let aggs =
    Sweep.exact_sweep ~node_limit:500_000 Workloads.platform_random ~alphas:[ 1.0 ] baselines
  in
  match aggs with
  | [ a ] ->
    check_int "certified" 1 a.Sweep.e_certified;
    check_float "feasible at full memory" 1.0 a.Sweep.e_success_rate;
    check_bool "optimal at most HEFT" true (a.Sweep.e_mean_ratio <= 1.0 +. 1e-9)
  | _ -> Alcotest.fail "one aggregate expected"

(* ------------------------------------------------------------- figures --- *)

let test_figures_smoke () =
  (* Tiny-scale smoke runs of every driver; they must print tables and leave
     the CSV files behind. *)
  Figures.table1 ~out_dir:tmp_out ();
  Figures.figure8 ~out_dir:tmp_out ();
  Figures.figure9 ~out_dir:tmp_out ~size:40 ();
  Figures.figure10 ~out_dir:tmp_out ~count:3 ~alphas:[ 0.5; 1.0 ] ~exact_nodes:2_000 ~tiny_count:2 ();
  Figures.figure12 ~out_dir:tmp_out ~count:2 ~size:40 ~alphas:[ 0.5; 1.0 ] ();
  Figures.figure14 ~out_dir:tmp_out ~n:4 ~points:6 ();
  Figures.figure15 ~out_dir:tmp_out ~n:4 ~points:6 ();
  Figures.ablations ~out_dir:tmp_out ~count:2 ~alphas:[ 0.8 ] ();
  List.iter
    (fun f -> check_bool (f ^ " written") true (Sys.file_exists (Filename.concat tmp_out f)))
    [ "table1.csv"; "figure8.dot"; "figure9.dot"; "figure10.csv"; "figure10_optimal.csv";
      "figure12.csv"; "figure14.csv"; "figure15.csv"; "ablation_memheft.csv" ]

let test_figure11_13_smoke () =
  Figures.figure11 ~out_dir:tmp_out ~points:4 ();
  Figures.figure13 ~out_dir:tmp_out ~size:40 ~points:4 ();
  List.iter
    (fun f -> check_bool (f ^ " written") true (Sys.file_exists (Filename.concat tmp_out f)))
    [ "figure11.csv"; "figure13.csv" ]

let test_plots_script () =
  Plots.write_gnuplot ~out_dir:tmp_out ();
  let path = Filename.concat tmp_out "plots.gp" in
  check_bool "written" true (Sys.file_exists path);
  let ic = open_in path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  List.iter
    (fun png -> check_bool png true (contains png body))
    [ "figure10.png"; "figure11.png"; "figure12.png"; "figure13.png"; "figure14.png"; "figure15.png" ]

(* A single artefact runs the same row of the scale table as [all] does:
   at quick scale Figure 9 is the 300-task LargeRandSet DAG either way. *)
let test_single_artefact_matches_all () =
  let one = Filename.concat tmp_out "one" and every = Filename.concat tmp_out "all" in
  (match Figures.run ~out_dir:one Figures.Quick Figures.Figure9 with
   | Ok () -> ()
   | Error msg -> Alcotest.fail msg);
  Figures.all ~out_dir:every Figures.Quick;
  let dot dir = In_channel.with_open_bin (Filename.concat dir "figure9.dot") In_channel.input_all in
  let dag = List.hd (Workloads.large_rand_set ~count:1 ~size:300 ()) in
  check_int "300 tasks" 300 (Dag.n_tasks dag);
  check_string "single run writes the 300-task DAG" (Dag.to_dot dag) (dot one);
  check_string "single run = the figure-9 step of all" (dot every) (dot one)

let test_scale_without_row () =
  match Figures.run ~out_dir:tmp_out Figures.Default Figures.Online with
  | Ok () -> Alcotest.fail "online has no default-scale row"
  | Error msg -> check_string "message" "online has no default-scale row" msg

let test_default_alphas () =
  check_int "20 points" 20 (List.length Figures.default_alphas);
  check_float "first" 0.05 (List.hd Figures.default_alphas);
  check_float "last" 1.0 (List.nth Figures.default_alphas 19)

let () =
  Alcotest.run "experiments"
    [ ( "workloads",
        [ Alcotest.test_case "small set" `Quick test_small_rand_set;
          Alcotest.test_case "deterministic" `Quick test_sets_deterministic;
          Alcotest.test_case "tiny set" `Quick test_tiny_set;
          Alcotest.test_case "large set scalable" `Quick test_large_set_scalable;
          Alcotest.test_case "platforms" `Quick test_platforms ] );
      ( "sweep",
        [ Alcotest.test_case "baseline fields" `Quick test_baseline_fields;
          Alcotest.test_case "full memory replay" `Quick test_run_bounded_at_full_memory;
          Alcotest.test_case "infeasible point" `Quick test_run_bounded_infeasible;
          Alcotest.test_case "normalized sweep shape" `Quick test_normalized_sweep_shape;
          Alcotest.test_case "success monotone" `Quick test_success_monotone;
          Alcotest.test_case "exact sweep" `Quick test_exact_sweep_tiny ] );
      ( "figures",
        [ Alcotest.test_case "drivers smoke" `Slow test_figures_smoke;
          Alcotest.test_case "details smoke" `Slow test_figure11_13_smoke;
          Alcotest.test_case "single artefact = its step of all" `Slow
            test_single_artefact_matches_all;
          Alcotest.test_case "scale without a row" `Quick test_scale_without_row;
          Alcotest.test_case "gnuplot script" `Quick test_plots_script;
          Alcotest.test_case "default alphas" `Quick test_default_alphas ] ) ]
