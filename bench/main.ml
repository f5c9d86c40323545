(* Benchmark harness: regenerates every table and figure of the paper
   (sections printed to stdout, CSVs under results/), then runs the
   campaigns that bench/pipeline does not measure: the exact baseline, the
   online scenario layer and the typed linter.

   Usage: main.exe [--quick | --paper] [--skip-figures]
                   [--only-exact] [--only-online] [--only-lint] [--jobs N]
   Default scale completes in a few minutes; --paper runs the full SS 6
   campaign (50x30, 100x1000, 13x13 with the complete alpha grid).
   --only-exact runs just the campaign/exact section (results/BENCH_exact.json).
   --only-online runs just the campaign/online section — plan under jittered
   arrivals, replay under multiplicative noise (results/BENCH_online.json).
   --only-lint runs just the campaign/lint section — typed static analysis
   over the repo's own cmts, cold vs cached (results/BENCH_lint.json).
   --jobs N fans the campaign out over a N-domain Par pool (results are
   bit-identical for every N; default: recognised CPUs).

   The planners, the verification pipeline (validate / trace / stats) and
   the daemon are timed by bench/pipeline, end to end and per layer. *)

(* Every wall-clock sample in this harness goes through [now]: the numbers
   are reported, never fed back into scheduling decisions, so the
   nondeterminism is confined to this one pragma'd line. *)
(* lint: allow determinism -- the timing harness measures wall-clock by definition *)
let now () = Unix.gettimeofday ()

let run_figures scale pool out_dir =
  let report s =
    print_string s;
    flush stdout
  in
  match scale with
  | `Quick -> Figures.all_quick ~out_dir ~report ~pool ()
  | `Paper -> Figures.all_paper ~out_dir ~report ~pool ()
  | `Default ->
    Figures.table1 ~out_dir ~report ();
    Figures.figure8 ~out_dir ~report ();
    Figures.figure9 ~out_dir ~report ();
    Figures.figure10 ~out_dir ~report ~pool ~count:50 ~exact_nodes:10_000 ~capped_count:15
      ~tiny_count:20 ();
    Figures.figure11 ~out_dir ~report ~pool ();
    Figures.figure12 ~out_dir ~report ~pool ~count:30 ~size:1000 ();
    Figures.figure13 ~out_dir ~report ~pool ();
    Figures.figure14 ~out_dir ~report ~pool ~n:13 ();
    Figures.figure15 ~out_dir ~report ~pool ~n:13 ();
    Figures.ilp_cross_check ~out_dir ~report ~pool ~node_limit:20_000 ();
    Figures.ablations ~out_dir ~report ~pool ~count:20 ();
    Figures.extensions ~out_dir ~report ~pool ~count:20 ();
    Plots.write_gnuplot ~out_dir ()

(* --------------------------------------------------- campaign/exact ------ *)

(* Perf trajectory of the exact branch-and-bound: node throughput of the
   commit/undo search against the in-tree per-node-copy reference
   ([Exact.solve_reference]), wall-clock of warm-started vs cold node LPs in
   [Mip.solve], and a --jobs sweep of the parallel frontier decomposition.
   Emits results/BENCH_exact.json.

   Both engines are run in parity mode (frontier 1, no dominance) on the
   same node budget, so nodes/sec is compared over the identical tree.  The
   jobs sweep records honest wall times: on a single-core container the
   extra domains can only add overhead — the section's point there is the
   determinism cross-check (bit-identical results for every jobs count), not
   a speedup. *)
let run_exact_bench scale out_dir =
  Printf.printf "\n==== campaign/exact -- commit/undo B&B vs per-node-copy reference ====\n\n%!";
  let quick = scale = `Quick in
  let time f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  (* Four DAG families at a memory bound that keeps the search busy. *)
  let instances =
    let bounded g platform =
      let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g platform) in
      Platform.with_bounds platform ~m_blue:(0.7 *. peak) ~m_red:(0.7 *. peak)
    in
    let rand size =
      let g = List.hd (Workloads.large_rand_set ~count:1 ~size ()) in
      ("random", size, g, bounded g Workloads.platform_random)
    in
    let lu n =
      let g = Workloads.lu ~n () in
      ("lu", n, g, bounded g Workloads.platform_mirage)
    in
    let chol n =
      let g = Workloads.cholesky ~n () in
      ("cholesky", n, g, bounded g Workloads.platform_mirage)
    in
    let fork width =
      let g = Toy.fork_join ~width ~w:1. ~f:1. ~c:1. in
      ("fork_join", width, g, Platform.make ~p_blue:2 ~p_red:1 ~m_blue:(float_of_int width) ~m_red:(float_of_int width))
    in
    if quick then [ rand 40; lu 6; chol 6; fork 8 ]
    else [ rand 100; lu 10; chol 10; fork 12 ]
  in
  let node_limit = if quick then 5_000 else 50_000 in
  let entries = ref [] in
  let push e = entries := e :: !entries in
  (* Section 1: copy-vs-undo node throughput, identical tree (parity mode). *)
  List.iter
    (fun (family, param, g, p) ->
      let r_ref, t_ref = time (fun () -> Exact.solve_reference ~node_limit g p) in
      let r_undo, t_undo =
        time (fun () -> Exact.solve ~frontier:1 ~dominance:false ~node_limit g p)
      in
      let nps n t = float_of_int n /. t in
      Printf.printf
        "search    %-9s n=%-5d  ref %8.0f n/s  undo %8.0f n/s  speedup %5.2fx  (%d vs %d nodes)\n%!"
        family (Dag.n_tasks g)
        (nps r_ref.Exact.nodes t_ref) (nps r_undo.Exact.nodes t_undo)
        (nps r_undo.Exact.nodes t_undo /. nps r_ref.Exact.nodes t_ref)
        r_ref.Exact.nodes r_undo.Exact.nodes;
      push
        [ ("section", Bench_json.S "search_state"); ("family", Bench_json.S family);
          ("param", Bench_json.I param); ("n_tasks", Bench_json.I (Dag.n_tasks g));
          ("node_limit", Bench_json.I node_limit);
          ("ref_nodes", Bench_json.I r_ref.Exact.nodes);
          ("undo_nodes", Bench_json.I r_undo.Exact.nodes);
          ("ref_nodes_per_s", Bench_json.F (nps r_ref.Exact.nodes t_ref));
          ("undo_nodes_per_s", Bench_json.F (nps r_undo.Exact.nodes t_undo));
          ("speedup", Bench_json.F (nps r_undo.Exact.nodes t_undo /. nps r_ref.Exact.nodes t_ref)) ])
    instances;
  (* Section 2: warm-started vs cold node LPs on the ILP cross-check toys. *)
  let lp_cases =
    let base =
      [ ("chain2", Toy.chain ~n:2 ~w:2. ~f:1. ~c:1.,
         Platform.make ~p_blue:1 ~p_red:1 ~m_blue:3. ~m_red:3., 5_000);
        ("chain3", Toy.chain ~n:3 ~w:2. ~f:1. ~c:1.,
         Platform.make ~p_blue:1 ~p_red:1 ~m_blue:4. ~m_red:4., 5_000) ]
    in
    if quick then base
    else
      base
      @ [ ("fork2", Toy.fork_join ~width:2 ~w:1. ~f:1. ~c:1.,
           Platform.make ~p_blue:1 ~p_red:1 ~m_blue:6. ~m_red:6., 150) ]
  in
  List.iter
    (fun (name, g, p, lp_nodes) ->
      let model = Ilp_model.build g p in
      let seed =
        match Exact.solve g p with
        | { Exact.status = Exact.Proven_optimal; makespan; _ } -> Some (makespan +. 1e-3)
        | _ -> None
      in
      let cold, t_cold =
        time (fun () -> Mip.solve ~node_limit:lp_nodes ?incumbent:seed ~warm_start:false (Ilp_model.lp model))
      in
      let warm, t_warm =
        time (fun () -> Mip.solve ~node_limit:lp_nodes ?incumbent:seed ~warm_start:true (Ilp_model.lp model))
      in
      Printf.printf "warm-lp   %-9s cold %7.3f s (%4d nodes)  warm %7.3f s (%4d nodes)  speedup %5.2fx\n%!"
        name t_cold cold.Mip.nodes t_warm warm.Mip.nodes (t_cold /. t_warm);
      push
        [ ("section", Bench_json.S "warm_lp"); ("instance", Bench_json.S name);
          ("node_limit", Bench_json.I lp_nodes);
          ("cold_s", Bench_json.F t_cold); ("cold_nodes", Bench_json.I cold.Mip.nodes);
          ("warm_s", Bench_json.F t_warm); ("warm_nodes", Bench_json.I warm.Mip.nodes);
          ("speedup", Bench_json.F (t_cold /. t_warm)) ])
    lp_cases;
  (* Section 3: --jobs sweep of the parallel frontier decomposition; the
     determinism contract (identical result for every jobs count) is checked
     on every row. *)
  let jobs_node_limit = if quick then 2_000 else 20_000 in
  List.iter
    (fun (family, param, g, p) ->
      let serial, t_serial = time (fun () -> Exact.solve ~node_limit:jobs_node_limit g p) in
      List.iter
        (fun jobs ->
          let r, t =
            if jobs = 1 then (serial, t_serial)
            else
              time (fun () ->
                  Par.with_pool ~jobs (fun pool ->
                      Exact.solve ~pool ~node_limit:jobs_node_limit g p))
          in
          let identical =
            r.Exact.status = serial.Exact.status
            && Int64.equal (Int64.bits_of_float r.Exact.makespan)
                 (Int64.bits_of_float serial.Exact.makespan)
            && Int64.equal (Int64.bits_of_float r.Exact.best_bound)
                 (Int64.bits_of_float serial.Exact.best_bound)
            && r.Exact.nodes = serial.Exact.nodes
          in
          Printf.printf "jobs      %-9s --jobs %d  %7.3f s  identical %b\n%!" family jobs t identical;
          push
            [ ("section", Bench_json.S "jobs"); ("family", Bench_json.S family);
              ("param", Bench_json.I param); ("jobs", Bench_json.I jobs);
              ("node_limit", Bench_json.I jobs_node_limit); ("wall_s", Bench_json.F t);
              ("identical", Bench_json.B identical) ])
        [ 1; 2; 8 ])
    instances;
  Bench_json.write ~out_dir ~file:"BENCH_exact.json" ~bench:"exact"
    ~scale:(match scale with `Quick -> "quick" | `Paper -> "paper" | `Default -> "default")
    ~extra:
      [ ("note",
         Bench_json.S
           "single-core container: the jobs sweep measures determinism overhead, not speedup") ]
    (List.rev !entries)

(* --------------------------------------------------- campaign/online ----- *)

(* Online planning + perturbed replay throughput (lib/online): plan every
   instance once under jittered arrivals, replay the committed schedule over
   the noise-seed x policy grid at --jobs 1/2/8, and cross-check the
   determinism contract on every row — the CSV digest must be byte-identical
   for every jobs count, and invariant under shuffling/duplicating the
   noise-seed list.  Emits results/BENCH_online.json. *)
let run_online_bench scale out_dir =
  Printf.printf "\n==== campaign/online -- plan, perturb, replay ====\n\n%!";
  let quick = scale = `Quick in
  let count = if quick then 4 else 8 in
  let n_seeds = if quick then 4 else 16 in
  let tile_n = if quick then 6 else 10 in
  let instances =
    List.mapi
      (fun k dag -> (Printf.sprintf "small%02d" k, dag))
      (Workloads.small_rand_set ~count ())
    @ [ ("lu", Workloads.lu ~n:tile_n ()); ("cholesky", Workloads.cholesky ~n:tile_n ()) ]
  in
  let platform = Workloads.platform_random in
  let cfg seeds =
    { Scenario.default_config with
      Scenario.arrival = Arrival.Jittered { gap = 1.0; seed = 5 };
      noise_level = 0.3;
      noise_seeds = seeds }
  in
  let seeds = List.init n_seeds (fun s -> s) in
  let digest rows =
    Digest.to_hex
      (Digest.string
         (String.concat "\n" (List.map (fun r -> Csv.row_to_string (Scenario.csv_row (cfg seeds) r)) rows)))
  in
  let entries = ref [] in
  let push e = entries := e :: !entries in
  let time f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  let (serial_rows, _), t_serial = time (fun () -> Scenario.run (cfg seeds) instances platform) in
  let serial_digest = digest serial_rows in
  List.iter
    (fun jobs ->
      let (rows, _), t =
        if jobs = 1 then ((serial_rows, []), t_serial)
        else
          time (fun () ->
              Par.with_pool ~jobs (fun pool -> Scenario.run ~pool (cfg seeds) instances platform))
      in
      let identical = String.equal (digest rows) serial_digest in
      Printf.printf "online    --jobs %d  %7.3f s  %d rows  identical %b\n%!" jobs t
        (List.length rows) identical;
      push
        [ ("section", Bench_json.S "jobs"); ("jobs", Bench_json.I jobs);
          ("instances", Bench_json.I (List.length instances));
          ("seeds", Bench_json.I n_seeds); ("rows", Bench_json.I (List.length rows));
          ("wall_s", Bench_json.F t); ("identical", Bench_json.B identical) ])
    [ 1; 2; 8 ];
  (* Seed-list order/duplication must not matter: the grid sorts and
     dedupes seeds up front. *)
  let shuffled = List.rev seeds @ seeds in
  let (shuffled_rows, _), t_shuffled =
    time (fun () -> Scenario.run (cfg shuffled) instances platform)
  in
  let identical = String.equal (digest shuffled_rows) serial_digest in
  Printf.printf "online    seed-order shuffle  %7.3f s  identical %b\n%!" t_shuffled identical;
  push
    [ ("section", Bench_json.S "seed_order"); ("jobs", Bench_json.I 1);
      ("instances", Bench_json.I (List.length instances));
      ("seeds", Bench_json.I n_seeds); ("rows", Bench_json.I (List.length shuffled_rows));
      ("wall_s", Bench_json.F t_shuffled); ("identical", Bench_json.B identical) ];
  Bench_json.write ~out_dir ~file:"BENCH_online.json" ~bench:"online"
    ~scale:(match scale with `Quick -> "quick" | `Paper -> "paper" | `Default -> "default")
    ~extra:
      [ ("note",
         Bench_json.S
           "single-core container: the jobs sweep measures determinism overhead, not speedup") ]
    (List.rev !entries)

(* ----------------------------------------------------- campaign/lint ---- *)

(* Typed-lint throughput (lib/lint): cold vs warm wall-time of the
   interprocedural pass over the repo's own .cmt artifacts — the warm pass
   must serve every module from the content-addressed summary cache
   (extracted = 0) — plus the findings count and the --jobs 1/2/8
   byte-identity cross-check on the JSON report.  Requires the @check
   build; emits results/BENCH_lint.json. *)
let run_lint_bench scale out_dir =
  Printf.printf "\n==== campaign/lint -- typed pass, cold vs cached ====\n\n%!";
  let root = Sys.getcwd () in
  let cache_file = Filename.temp_file "memsched_lint_bench" ".cache" in
  let run jobs =
    match Lint_engine.run_typed ~jobs ~cache_file ~root () with
    | Ok (findings, _, stats) -> (Lint_engine.render_json findings, List.length findings, stats)
    | Error msg -> failwith ("campaign/lint: " ^ msg)
  in
  let time f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  (* temp_file creates an empty file; drop it so the first pass is truly
     cold (an empty cache, not a malformed one). *)
  Sys.remove cache_file;
  let (cold_json, cold_count, cold_stats), t_cold = time (fun () -> run 2) in
  let (warm_json, _, warm_stats), t_warm = time (fun () -> run 2) in
  let entries = ref [] in
  let push phase jobs json t (stats : Lint_engine.typed_stats) =
    let identical = String.equal json cold_json in
    Printf.printf
      "lint      --jobs %d  %-5s %7.3f s  %d modules  %d cached  %d extracted  %d findings  \
       identical %b\n%!"
      jobs phase t stats.Lint_engine.tp_modules stats.Lint_engine.tp_from_cache
      stats.Lint_engine.tp_extracted cold_count identical;
    entries :=
      [ ("phase", Bench_json.S phase); ("jobs", Bench_json.I jobs); ("wall_s", Bench_json.F t);
        ("modules", Bench_json.I stats.Lint_engine.tp_modules);
        ("from_cache", Bench_json.I stats.Lint_engine.tp_from_cache);
        ("extracted", Bench_json.I stats.Lint_engine.tp_extracted);
        ("stale", Bench_json.I stats.Lint_engine.tp_stale);
        ("findings", Bench_json.I cold_count); ("identical", Bench_json.B identical) ]
      :: !entries
  in
  push "cold" 2 cold_json t_cold cold_stats;
  push "warm" 2 warm_json t_warm warm_stats;
  List.iter
    (fun jobs ->
      let (json, _, stats), t = time (fun () -> run jobs) in
      push "warm" jobs json t stats)
    [ 1; 8 ];
  Sys.remove cache_file;
  Bench_json.write ~out_dir ~file:"BENCH_lint.json" ~bench:"lint"
    ~scale:(match scale with `Quick -> "quick" | `Paper -> "paper" | `Default -> "default")
    ~extra:
      [ ("note",
         Bench_json.S
           "typed pass over the repo's own cmts; warm rows must be fully cache-served and \
            byte-identical to the cold report for every jobs count") ]
    (List.rev !entries)

let () =
  let args = Array.to_list Sys.argv in
  let scale =
    if List.mem "--quick" args then `Quick else if List.mem "--paper" args then `Paper else `Default
  in
  let jobs =
    let rec find = function
      | "--jobs" :: v :: _ -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> n
        | _ ->
          prerr_endline "bench: --jobs expects a positive integer";
          exit 2)
      | _ :: tl -> find tl
      | [] -> Par.default_jobs ()
    in
    find args
  in
  let out_dir = "results" in
  if List.mem "--only-exact" args then run_exact_bench scale out_dir
  else if List.mem "--only-online" args then run_online_bench scale out_dir
  else if List.mem "--only-lint" args then run_lint_bench scale out_dir
  else begin
    if not (List.mem "--skip-figures" args) then
      Par.with_pool ~jobs (fun pool -> run_figures scale pool out_dir);
    run_exact_bench scale out_dir;
    run_online_bench scale out_dir;
    run_lint_bench scale out_dir
  end;
  Printf.printf "\nAll sections complete; CSVs in %s/\n" out_dir
