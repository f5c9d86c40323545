let default_alphas = List.init 20 (fun k -> 0.05 *. float_of_int (k + 1))

(* All narration goes through a caller-supplied reporter; the library itself
   never touches stdout.  [bin/] passes a printing reporter, tests keep the
   quiet default. *)
let quiet (_ : string) = ()

let section report title = Printf.ksprintf report "\n==== %s ====\n\n" title

(* Campaign drivers take an optional shared Par.t; every fan-out below keeps
   results in input order, so CSVs are byte-identical for every jobs count. *)
let pool_map ?pool ~f xs =
  match pool with None -> List.map f xs | Some pool -> Par.parallel_map pool ~f xs

let write_csv out_dir file header rows = Csv.write (Filename.concat out_dir file) ~header rows

let write_file out_dir file contents =
  Csv.ensure_dir out_dir;
  let oc = open_out (Filename.concat out_dir file) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* ---------------------------------------------------------------- Table 1 *)

let table1 ?(out_dir = "results") ?(report = quiet) ?pool () =
  section report "Table 1 -- kernel running times on a 192x192 tile (ms)";
  let rows =
    List.filter_map
      (fun k ->
        if k = Kernels.Fictitious then None
        else Some [ Kernels.name k; Table.cell_f (Kernels.cpu_ms k); Table.cell_f (Kernels.gpu_ms k) ])
      Kernels.all
  in
  report (Table.render ~header:[ "kernel"; "CPU (Table 1)"; "GPU (derived)" ] rows);
  Printf.ksprintf report "\ntile transfer: %g ms, tile size: %g memory unit\n"
    Kernels.tile_transfer_ms Kernels.tile_size;
  (* Exact-baseline certification: makespan, best bound and optimality gap of
     the branch-and-bound on reference instances.  The last entry runs under
     a deliberately tiny node budget so the reported gap is nonzero. *)
  let exact_instances =
    [ ("exact:chain3", Toy.chain ~n:3 ~w:2. ~f:1. ~c:1.,
       Platform.make ~p_blue:1 ~p_red:1 ~m_blue:4. ~m_red:4., 100_000);
      ("exact:fork2", Toy.fork_join ~width:2 ~w:1. ~f:1. ~c:1.,
       Platform.make ~p_blue:1 ~p_red:1 ~m_blue:6. ~m_red:6., 100_000);
      ("exact:tiny_capped",
       (match Workloads.tiny_rand_set ~count:1 () with [ d ] -> d | _ -> assert false),
       Workloads.platform_random, 10) ]
  in
  let exact_rows =
    pool_map ?pool
      ~f:(fun (name, g, p, node_limit) ->
        let r = Exact.solve ?pool ~node_limit g p in
        let makespan_cell =
          if Float.is_nan r.Exact.makespan then "-" else Csv.float_cell r.Exact.makespan
        in
        let bound_cell =
          if Float.is_nan r.Exact.best_bound then "-" else Csv.float_cell r.Exact.best_bound
        in
        let gap_cell =
          match r.Exact.status with
          | Exact.Proven_optimal -> Csv.float_cell 0.
          | Exact.Feasible when r.Exact.makespan > 0. ->
            Csv.float_cell ((r.Exact.makespan -. r.Exact.best_bound) /. r.Exact.makespan)
          | _ -> "-"
        in
        [ name; makespan_cell; bound_cell; gap_cell ])
      exact_instances
  in
  report "\n";
  report (Table.render ~header:[ "exact instance"; "makespan"; "best bound"; "gap" ] exact_rows);
  write_csv out_dir "table1.csv"
    [ "entry"; "cpu_ms"; "gpu_ms"; "exact_makespan"; "exact_best_bound"; "exact_gap" ]
    (List.filter_map
       (fun k ->
         if k = Kernels.Fictitious then None
         else
           Some
             [ Kernels.name k; Csv.float_cell (Kernels.cpu_ms k);
               Csv.float_cell (Kernels.gpu_ms k); "-"; "-"; "-" ])
       Kernels.all
    @ List.map (fun r -> match r with
        | [ name; ms; bb; gap ] -> [ name; "-"; "-"; ms; bb; gap ]
        | _ -> assert false)
        exact_rows)

(* ----------------------------------------------------------- Figures 8, 9 *)

let sample_dag_report ~report ~label ~dot_file out_dir dag =
  section report label;
  report (Format.asprintf "%a@." Dag.pp_stats dag);
  write_file out_dir dot_file (Dag.to_dot dag);
  Printf.ksprintf report "DOT written to %s\n" (Filename.concat out_dir dot_file)

let figure8 ?(out_dir = "results") ?(report = quiet) () =
  match Workloads.small_rand_set ~count:1 () with
  | [ dag ] ->
    sample_dag_report ~report ~label:"Figure 8 -- a SmallRandSet DAG" ~dot_file:"figure8.dot"
      out_dir dag
  | _ -> assert false

let figure9 ?(out_dir = "results") ?(report = quiet) ?(size = 1000) () =
  match Workloads.large_rand_set ~count:1 ~size () with
  | [ dag ] ->
    sample_dag_report ~report ~label:"Figure 9 -- a LargeRandSet DAG" ~dot_file:"figure9.dot"
      out_dir dag
  | _ -> assert false

(* ------------------------------------------------- normalised sweep report *)

let print_normalized ~report ~label ~csv out_dir alphas series =
  (* series: (name, aggregates) list with aggregates aligned on alphas *)
  section report label;
  let header =
    "alpha"
    :: List.concat_map (fun (name, _) -> [ name ^ " ratio"; name ^ " ok" ]) series
  in
  let rows =
    List.mapi
      (fun k alpha ->
        Printf.sprintf "%.2f" alpha
        :: List.concat_map
             (fun (_, aggs) ->
               let a = List.nth aggs k in
               [ Table.cell_f a.Sweep.mean_ratio; Table.cell_pct a.Sweep.success_rate ])
             series)
      alphas
  in
  report (Table.render ~header rows);
  write_csv out_dir csv
    ("alpha"
    :: List.concat_map (fun (name, _) -> [ name ^ "_ratio"; name ^ "_success" ]) series)
    (List.mapi
       (fun k alpha ->
         Csv.float_cell alpha
         :: List.concat_map
              (fun (_, aggs) ->
                let a = List.nth aggs k in
                [ Csv.float_cell a.Sweep.mean_ratio; Csv.float_cell a.Sweep.success_rate ])
              series)
       alphas)

(* --------------------------------------------------------------- Figure 10 *)

let figure10 ?(out_dir = "results") ?(report = quiet) ?pool ?(count = 50) ?(alphas = default_alphas)
    ?(exact_nodes = 10_000) ?(capped_count = 15) ?(tiny_count = 20) () =
  let platform = Workloads.platform_random in
  let baselines = Sweep.baselines ?pool platform (Workloads.small_rand_set ~count ()) in
  let series =
    List.map
      (fun h ->
        (Heuristics.name_to_string h, Sweep.normalized_sweep ?pool platform ~alphas h baselines))
      [ Heuristics.MemHEFT; Heuristics.MemMinMin ]
  in
  print_normalized ~report
    ~label:(Printf.sprintf "Figure 10 -- SmallRandSet (%d DAGs, 30 tasks)" count)
    ~csv:"figure10.csv" out_dir alphas series;
  (* Optimal series: certified on the 10-task companion set; node-capped
     best-effort on the 30-task set. *)
  let exact_alphas = List.filter (fun a -> Float.equal (Float.rem (Float.round (a *. 100.)) 10.) 0.) alphas in
  let tiny = Sweep.baselines ?pool platform (Workloads.tiny_rand_set ~count:tiny_count ()) in
  let tiny_heur =
    List.map
      (fun h ->
        ( Heuristics.name_to_string h,
          Sweep.normalized_sweep ?pool platform ~alphas:exact_alphas h tiny ))
      [ Heuristics.MemHEFT; Heuristics.MemMinMin ]
  in
  (* A budget the 10-task instances certify within. *)
  let tiny_exact =
    Sweep.exact_sweep ?pool ~node_limit:200_000 platform ~alphas:exact_alphas tiny
  in
  let capped_baselines =
    List.filteri (fun k _ -> k < capped_count) baselines
  in
  let capped_exact =
    Sweep.exact_sweep ?pool ~node_limit:exact_nodes platform ~alphas:exact_alphas capped_baselines
  in
  section report
    (Printf.sprintf
       "Figure 10 (Optimal series) -- certified on %d 10-task DAGs; node-capped on the 30-task set"
       tiny_count);
  report
    (Table.render
       ~header:
         [ "alpha"; "Opt ratio (10t)"; "Opt ok (10t)"; "MemHEFT ratio (10t)";
           "MemMinMin ratio (10t)"; "Opt<= (30t, capped)"; "certified (30t)" ]
       (List.mapi
       (fun k alpha ->
         let te = List.nth tiny_exact k in
         let ce = List.nth capped_exact k in
         let h10 = List.nth (snd (List.nth tiny_heur 0)) k in
         let m10 = List.nth (snd (List.nth tiny_heur 1)) k in
         [ Printf.sprintf "%.2f" alpha;
           Table.cell_f te.Sweep.e_mean_ratio;
           Table.cell_pct te.Sweep.e_success_rate;
           Table.cell_f h10.Sweep.mean_ratio;
           Table.cell_f m10.Sweep.mean_ratio;
           Table.cell_f ce.Sweep.e_best_ratio;
           Printf.sprintf "%d/%d" ce.Sweep.e_certified (List.length capped_baselines) ])
          exact_alphas));
  write_csv out_dir "figure10_optimal.csv"
    [ "alpha"; "opt10_ratio"; "opt10_success"; "memheft10_ratio"; "memminmin10_ratio";
      "opt30_ratio"; "opt30_certified" ]
    (List.mapi
       (fun k alpha ->
         let te = List.nth tiny_exact k in
         let ce = List.nth capped_exact k in
         let h10 = List.nth (snd (List.nth tiny_heur 0)) k in
         let m10 = List.nth (snd (List.nth tiny_heur 1)) k in
         [ Csv.float_cell alpha;
           Csv.float_cell te.Sweep.e_mean_ratio;
           Csv.float_cell te.Sweep.e_success_rate;
           Csv.float_cell h10.Sweep.mean_ratio;
           Csv.float_cell m10.Sweep.mean_ratio;
           Csv.float_cell ce.Sweep.e_best_ratio;
           string_of_int ce.Sweep.e_certified ])
       exact_alphas)

(* -------------------------------------------- absolute detail (Figs 11/13) *)

let absolute_detail ~report ~label ~csv ?pool ?(exact_nodes = None) out_dir platform dag ~points =
  section report label;
  let b = Sweep.baseline platform dag in
  let max_mem = ceil (Float.max b.Sweep.heft_peak b.Sweep.minmin_peak) in
  let step = Float.max 1. (ceil (max_mem /. float_of_int points)) in
  let bounds =
    let rec build m acc = if m > max_mem +. step /. 2. then List.rev acc else build (m +. step) (m :: acc) in
    build step []
  in
  Printf.ksprintf report
    "HEFT makespan=%g (peak %g), MinMin makespan=%g (peak %g), lower bound=%g\n\n"
    b.Sweep.heft_makespan b.Sweep.heft_peak b.Sweep.minmin_makespan b.Sweep.minmin_peak
    b.Sweep.lower_bound;
  let cell m = if m.Sweep.feasible then Table.cell_f m.Sweep.makespan else "-" in
  let opt_of bound =
    match exact_nodes with
    | None -> None
    | Some nodes ->
      let p = Platform.with_bounds platform ~m_blue:bound ~m_red:bound in
      Some (Exact.solve ?pool ~node_limit:nodes dag p)
  in
  let header =
    [ "memory"; "MemHEFT"; "MemMinMin" ]
    @ (if exact_nodes = None then [] else [ "Optimal" ])
    @ [ "HEFT"; "MinMin"; "LowerBound" ]
  in
  let rows =
    pool_map ?pool
      ~f:(fun bound ->
        let mh = Sweep.run_bounded platform b Heuristics.MemHEFT ~bound in
        let mm = Sweep.run_bounded platform b Heuristics.MemMinMin ~bound in
        let opt =
          match opt_of bound with
          | None -> []
          | Some r -> (
            match r.Exact.status with
            | Exact.Proven_optimal -> [ Table.cell_f r.Exact.makespan ]
            | Exact.Feasible -> [ Table.cell_f r.Exact.makespan ^ "?" ]
            | Exact.Proven_infeasible -> [ "-" ]
            | Exact.Unknown -> [ "?" ])
        in
        [ Printf.sprintf "%g" bound; cell mh; cell mm ]
        @ opt
        @ [ Table.cell_f b.Sweep.heft_makespan; Table.cell_f b.Sweep.minmin_makespan;
            Table.cell_f b.Sweep.lower_bound ])
      bounds
  in
  report (Table.render ~header rows);
  write_csv out_dir csv (List.map (String.map (fun c -> if c = ' ' then '_' else c)) header) rows

let figure11 ?(out_dir = "results") ?(report = quiet) ?pool ?(points = 24) () =
  let dag = List.nth (Workloads.small_rand_set ~count:1 ()) 0 in
  absolute_detail ~report
    ~label:"Figure 11 -- makespan vs memory for one SmallRandSet DAG"
    ~csv:"figure11.csv" ?pool ~exact_nodes:(Some 100_000) out_dir Workloads.platform_random dag
    ~points

let figure12 ?(out_dir = "results") ?(report = quiet) ?pool ?(count = 100) ?(size = 1000)
    ?(alphas = default_alphas) () =
  let platform = Workloads.platform_random in
  let baselines = Sweep.baselines ?pool platform (Workloads.large_rand_set ~count ~size ()) in
  let series =
    List.map
      (fun h ->
        (Heuristics.name_to_string h, Sweep.normalized_sweep ?pool platform ~alphas h baselines))
      [ Heuristics.MemHEFT; Heuristics.MemMinMin ]
  in
  print_normalized ~report
    ~label:(Printf.sprintf "Figure 12 -- LargeRandSet (%d DAGs, %d tasks)" count size)
    ~csv:"figure12.csv" out_dir alphas series

let figure13 ?(out_dir = "results") ?(report = quiet) ?pool ?(size = 1000) ?(points = 24) () =
  match Workloads.large_rand_set ~count:1 ~size () with
  | [ dag ] ->
    absolute_detail ~report
      ~label:"Figure 13 -- makespan vs memory for one LargeRandSet DAG"
      ~csv:"figure13.csv" ?pool out_dir Workloads.platform_random dag ~points
  | _ -> assert false

(* ------------------------------------------------------- Figures 14 and 15 *)

(* Smallest integer memory bound under which the heuristic still succeeds. *)
let min_feasible_memory platform dag heuristic ~hi =
  let feasible bound =
    let p = Platform.with_bounds platform ~m_blue:bound ~m_red:bound in
    (Outcome.run heuristic dag p).Outcome.feasible
  in
  if not (feasible hi) then None
  else begin
    (* Integer bisection: lo is always infeasible (0 as a sentinel), hi
       always feasible. *)
    let lo = ref 0 and hi = ref (int_of_float (ceil hi)) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if feasible (float_of_int mid) then hi := mid else lo := mid
    done;
    Some (float_of_int !hi)
  end

let linear_algebra_figure ~report ~label ~csv ?pool out_dir dag ~points =
  section report label;
  let platform = Workloads.platform_mirage in
  let b = Sweep.baseline platform dag in
  Printf.ksprintf report
    "HEFT makespan=%g ms (peak %g tiles), MinMin makespan=%g ms (peak %g tiles)\n"
    b.Sweep.heft_makespan b.Sweep.heft_peak b.Sweep.minmin_makespan b.Sweep.minmin_peak;
  let thresholds =
    List.map
      (fun h ->
        let t = min_feasible_memory platform dag h ~hi:(ceil (Float.max b.Sweep.heft_peak b.Sweep.minmin_peak)) in
        (h, t))
      [ Heuristics.MemHEFT; Heuristics.MemMinMin ]
  in
  List.iter
    (fun (h, t) ->
      Printf.ksprintf report "minimum feasible memory for %s: %s tiles\n"
        (Heuristics.name_to_string h)
        (match t with Some t -> Printf.sprintf "%g" t | None -> "-"))
    thresholds;
  report "\n";
  let max_mem = ceil (Float.max b.Sweep.heft_peak b.Sweep.minmin_peak) in
  let step = Float.max 1. (ceil (max_mem /. float_of_int points)) in
  let bounds =
    let rec build m acc = if m > max_mem +. step /. 2. then List.rev acc else build (m +. step) (m :: acc) in
    build step []
  in
  let rows =
    pool_map ?pool
      ~f:(fun bound ->
        let mh = Sweep.run_bounded platform b Heuristics.MemHEFT ~bound in
        let mm = Sweep.run_bounded platform b Heuristics.MemMinMin ~bound in
        let cell m = if m.Sweep.feasible then Table.cell_f m.Sweep.makespan else "-" in
        [ Printf.sprintf "%g" bound; cell mh; cell mm; Table.cell_f b.Sweep.heft_makespan;
          Table.cell_f b.Sweep.minmin_makespan ])
      bounds
  in
  report (Table.render ~header:[ "memory (tiles)"; "MemHEFT"; "MemMinMin"; "HEFT"; "MinMin" ] rows);
  write_csv out_dir csv [ "memory_tiles"; "memheft"; "memminmin"; "heft"; "minmin" ] rows

let figure14 ?(out_dir = "results") ?(report = quiet) ?pool ?(n = 13) ?(points = 24) () =
  linear_algebra_figure ~report
    ~label:(Printf.sprintf "Figure 14 -- LU factorisation of a %dx%d tiled matrix" n n)
    ~csv:"figure14.csv" ?pool out_dir (Workloads.lu ~n ()) ~points

let figure15 ?(out_dir = "results") ?(report = quiet) ?pool ?(n = 13) ?(points = 24) () =
  linear_algebra_figure ~report
    ~label:(Printf.sprintf "Figure 15 -- Cholesky factorisation of a %dx%d tiled matrix" n n)
    ~csv:"figure15.csv" ?pool out_dir (Workloads.cholesky ~n ()) ~points

(* ---------------------------------------------------------- ILP validation *)

let ilp_cross_check ?(out_dir = "results") ?(report = quiet) ?pool ?(node_limit = 50_000) () =
  section report "ILP cross-check -- built-in MIP vs exact branch-and-bound (SS 4)";
  let cases =
    [ ("chain2", Toy.chain ~n:2 ~w:2. ~f:1. ~c:1., Platform.make ~p_blue:1 ~p_red:1 ~m_blue:3. ~m_red:3.);
      ("chain3", Toy.chain ~n:3 ~w:2. ~f:1. ~c:1., Platform.make ~p_blue:1 ~p_red:1 ~m_blue:4. ~m_red:4.);
      ("fork2", Toy.fork_join ~width:2 ~w:1. ~f:1. ~c:1., Platform.make ~p_blue:1 ~p_red:1 ~m_blue:6. ~m_red:6.) ]
  in
  let rows =
    pool_map ?pool
      ~f:(fun (name, g, p) ->
        let model = Ilp_model.build g p in
        (* Seed the MIP with the exact solver's value (plus a hair, so the
           optimal node itself survives gap pruning). *)
        let seed =
          match Exact.solve ?pool g p with
          | { Exact.status = Exact.Proven_optimal; makespan; _ } -> Some (makespan +. 1e-3)
          | _ -> None
        in
        let sol = Mip.solve ~node_limit ~time_limit:60. ?incumbent:seed (Ilp_model.lp model) in
        let mip_cell =
          match (sol.Mip.status, sol.Mip.incumbent) with
          | Mip.Optimal, Some (_, obj) -> Printf.sprintf "%.3f" obj
          | Mip.Feasible, Some (_, obj) -> Printf.sprintf "%.3f?" obj
          | Mip.Infeasible, _ -> "infeasible"
          | _, _ -> "?"
        in
        let valid =
          match sol.Mip.incumbent with
          | Some (x, _) -> (
            let s = Ilp_model.extract_schedule model x in
            match Validator.validate g p s with Ok _ -> "yes" | Error _ -> "NO")
          | None -> "-"
        in
        let ex = Exact.solve ?pool g p in
        let exact_cell =
          match ex.Exact.status with
          | Exact.Proven_optimal -> Printf.sprintf "%.3f" ex.Exact.makespan
          | _ -> "?"
        in
        [ name;
          string_of_int (Ilp_model.n_vars model);
          string_of_int (Ilp_model.n_constrs model);
          mip_cell;
          string_of_int sol.Mip.nodes;
          valid;
          exact_cell ])
      cases
  in
  report
    (Table.render
       ~header:[ "instance"; "vars"; "constrs"; "MIP opt"; "nodes"; "schedule valid"; "exact opt" ]
       rows);
  write_csv out_dir "ilp_cross_check.csv"
    [ "instance"; "vars"; "constrs"; "mip"; "nodes"; "valid"; "exact" ]
    rows

(* -------------------------------------------------------------- ablations *)

let ablations ?(out_dir = "results") ?(report = quiet) ?pool ?(count = 30)
    ?(alphas = [ 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]) () =
  section report "Ablations -- design choices of the heuristics (SmallRandSet)";
  let platform = Workloads.platform_random in
  let baselines = Sweep.baselines ?pool platform (Workloads.small_rand_set ~count ()) in
  let variants =
    [ ("jit-per-edge (default)", Sched_state.default_options);
      ("jit-batched (paper formula)",
       { Sched_state.default_options with Sched_state.comm_mode = Sched_state.Jit_batched });
      ("eager transfers",
       { Sched_state.default_options with Sched_state.comm_mode = Sched_state.Eager });
      ("insertion policy",
       { Sched_state.default_options with Sched_state.proc_policy = Sched_state.Insertion }) ]
  in
  List.iter
    (fun h ->
      Printf.ksprintf report "\n-- %s --\n" (Heuristics.name_to_string h);
      let header =
        "alpha" :: List.concat_map (fun (name, _) -> [ name ^ " ratio"; name ^ " ok" ]) variants
      in
      let aggs =
        List.map
          (fun (_, options) -> Sweep.normalized_sweep ~options ?pool platform ~alphas h baselines)
          variants
      in
      let rows =
        List.mapi
          (fun k alpha ->
            Printf.sprintf "%.2f" alpha
            :: List.concat_map
                 (fun aggs ->
                   let a = List.nth aggs k in
                   [ Table.cell_f a.Sweep.mean_ratio; Table.cell_pct a.Sweep.success_rate ])
                 aggs)
          alphas
      in
      report (Table.render ~header rows);
      write_csv out_dir
        (Printf.sprintf "ablation_%s.csv" (String.lowercase_ascii (Heuristics.name_to_string h)))
        (List.map (String.map (fun c -> if c = ' ' then '_' else c)) header)
        rows)
    [ Heuristics.MemHEFT; Heuristics.MemMinMin ]

(* ---------------------------------------------------------- extensions --- *)

let extensions ?(out_dir = "results") ?(report = quiet) ?pool ?(count = 30)
    ?(alphas = [ 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]) () =
  section report "Extensions -- MaxMin / Sufferage family vs the paper's heuristics (SmallRandSet)";
  let platform = Workloads.platform_random in
  let baselines = Sweep.baselines ?pool platform (Workloads.small_rand_set ~count ()) in
  let heuristics =
    [ Heuristics.MemHEFT; Heuristics.MemMinMin; Heuristics.MemMaxMin; Heuristics.MemSufferage ]
  in
  let series =
    List.map
      (fun h ->
        (Heuristics.name_to_string h, Sweep.normalized_sweep ?pool platform ~alphas h baselines))
      heuristics
  in
  print_normalized ~report ~label:"memory-aware family" ~csv:"extensions.csv" out_dir alphas series

(* ------------------------------------------- online degradation campaign *)

let online_instances ~count =
  List.mapi
    (fun k dag -> (Printf.sprintf "small%02d" k, dag))
    (Workloads.small_rand_set ~count ())
  @ [ ("lu8", Workloads.lu ~n:8 ()); ("cholesky8", Workloads.cholesky ~n:8 ()) ]

let online_degradation ?(out_dir = "results") ?(report = quiet) ?pool ?(count = 6) ?(level = 0.2)
    ?(seeds = 8) () =
  section report "Online degradation -- replayed schedules under perturbed costs";
  let cfg =
    { Scenario.default_config with
      Scenario.arrival = Arrival.Jittered { gap = 1.0; seed = 5 };
      noise_level = level;
      noise_seeds = List.init seeds (fun s -> s) }
  in
  let rows, summaries =
    Scenario.run ?pool cfg (online_instances ~count) Workloads.platform_random
  in
  report
    (Table.render
       ~header:
         [ "instance"; "policy"; "ok"; "failed"; "mk p50"; "mk p95"; "mk max"; "peak p95" ]
       (List.map
          (fun s ->
            [ s.Scenario.s_instance; Replay.policy_label s.Scenario.s_policy;
              string_of_int s.Scenario.s_ok; string_of_int s.Scenario.s_failed;
              Table.cell_f s.Scenario.s_mk_p50; Table.cell_f s.Scenario.s_mk_p95;
              Table.cell_f s.Scenario.s_mk_max; Table.cell_f s.Scenario.s_peak_p95 ])
          summaries));
  write_csv out_dir "online_degradation.csv" Scenario.csv_header
    (List.map (Scenario.csv_row cfg) rows)

(* --------------------------------------------------- the scale table --- *)

type scale = Quick | Default | Paper

type artefact =
  | Table1
  | Figure8
  | Figure9
  | Figure10
  | Figure11
  | Figure12
  | Figure13
  | Figure14
  | Figure15
  | Ilp
  | Ablations
  | Extensions
  | Online

let scales = [ ("quick", Quick); ("default", Default); ("paper", Paper) ]

let artefacts =
  [ ("table1", Table1); ("figure8", Figure8); ("figure9", Figure9); ("figure10", Figure10);
    ("figure11", Figure11); ("figure12", Figure12); ("figure13", Figure13);
    ("figure14", Figure14); ("figure15", Figure15); ("ilp", Ilp); ("ablations", Ablations);
    ("extensions", Extensions); ("online", Online) ]

(* The only place that says which artefact runs at which size: one row per
   (scale, artefact), in the order [all] runs them.  A driver's own optional
   defaults are the paper's sizes, so the Paper rows mostly pass nothing. *)
let rows ~out_dir ~report ?pool = function
  | Quick ->
    [ (Table1, fun () -> table1 ~out_dir ~report ?pool ());
      (Figure8, fun () -> figure8 ~out_dir ~report ());
      (Figure9, fun () -> figure9 ~out_dir ~report ~size:300 ());
      (Figure10, fun () ->
        figure10 ~out_dir ~report ?pool ~count:15 ~exact_nodes:5_000 ~capped_count:5
          ~tiny_count:10 ());
      (Figure11, fun () -> figure11 ~out_dir ~report ?pool ());
      (Figure12, fun () -> figure12 ~out_dir ~report ?pool ~count:10 ~size:300 ());
      (Figure13, fun () -> figure13 ~out_dir ~report ?pool ~size:300 ());
      (Figure14, fun () -> figure14 ~out_dir ~report ?pool ~n:8 ());
      (Figure15, fun () -> figure15 ~out_dir ~report ?pool ~n:8 ());
      (Ilp, fun () -> ilp_cross_check ~out_dir ~report ?pool ~node_limit:5_000 ());
      (Ablations, fun () -> ablations ~out_dir ~report ?pool ~count:10 ());
      (Extensions, fun () -> extensions ~out_dir ~report ?pool ~count:10 ());
      (Online, fun () -> online_degradation ~out_dir ~report ?pool ~count:4 ~seeds:4 ()) ]
  | Default ->
    [ (Table1, fun () -> table1 ~out_dir ~report ?pool ());
      (Figure8, fun () -> figure8 ~out_dir ~report ());
      (Figure9, fun () -> figure9 ~out_dir ~report ());
      (Figure10, fun () ->
        figure10 ~out_dir ~report ?pool ~count:50 ~exact_nodes:10_000 ~capped_count:15
          ~tiny_count:20 ());
      (Figure11, fun () -> figure11 ~out_dir ~report ?pool ());
      (Figure12, fun () -> figure12 ~out_dir ~report ?pool ~count:30 ~size:1000 ());
      (Figure13, fun () -> figure13 ~out_dir ~report ?pool ());
      (Figure14, fun () -> figure14 ~out_dir ~report ?pool ~n:13 ());
      (Figure15, fun () -> figure15 ~out_dir ~report ?pool ~n:13 ());
      (Ilp, fun () -> ilp_cross_check ~out_dir ~report ?pool ~node_limit:20_000 ());
      (Ablations, fun () -> ablations ~out_dir ~report ?pool ~count:20 ());
      (Extensions, fun () -> extensions ~out_dir ~report ?pool ~count:20 ()) ]
  | Paper ->
    [ (Table1, fun () -> table1 ~out_dir ~report ?pool ());
      (Figure8, fun () -> figure8 ~out_dir ~report ());
      (Figure9, fun () -> figure9 ~out_dir ~report ());
      (Figure10, fun () -> figure10 ~out_dir ~report ?pool ());
      (Figure11, fun () -> figure11 ~out_dir ~report ?pool ());
      (Figure12, fun () -> figure12 ~out_dir ~report ?pool ());
      (Figure13, fun () -> figure13 ~out_dir ~report ?pool ());
      (Figure14, fun () -> figure14 ~out_dir ~report ?pool ());
      (Figure15, fun () -> figure15 ~out_dir ~report ?pool ());
      (Ilp, fun () -> ilp_cross_check ~out_dir ~report ?pool ());
      (Ablations, fun () -> ablations ~out_dir ~report ?pool ());
      (Extensions, fun () -> extensions ~out_dir ~report ?pool ~count:50 ());
      (Online, fun () -> online_degradation ~out_dir ~report ?pool ()) ]

let run ?(out_dir = "results") ?(report = quiet) ?pool scale artefact =
  match List.assoc_opt artefact (rows ~out_dir ~report ?pool scale) with
  | Some step ->
    step ();
    Ok ()
  | None ->
    let name table v = fst (List.find (fun (_, x) -> x = v) table) in
    Error
      (Printf.sprintf "%s has no %s-scale row" (name artefacts artefact) (name scales scale))

let all ?(out_dir = "results") ?(report = quiet) ?pool scale =
  List.iter (fun (_, step) -> step ()) (rows ~out_dir ~report ?pool scale);
  Plots.write_gnuplot ~out_dir ()
