(* A/B bit-identity suite for the hot-path overhaul.

   Two independent nets pin the optimised scheduling core to the
   pre-optimisation behaviour:

   - Golden digests: MD5 of the hex-float rendering of every schedule array
     (starts, procs, comm_starts) over dag x heuristic x alpha x options
     grids, captured from the pre-overhaul binary.  Any change to a single
     bit of any start time, processor choice or transfer time changes the
     digest.

   - Live A/B: the [_reference] runners (kept verbatim in-tree) must produce
     structurally identical schedules to the optimised runners on random, LU
     and Cholesky instances, under every option variant.

   Plus the acceptance check that campaign CSV bytes are identical at
   --jobs 1 and --jobs 2 (the incremental ready set lives in mutable state;
   the parallel campaign must not observe any difference). *)

open Helpers

let digest_schedule s =
  let b = Buffer.create 4096 in
  add_schedule_text b s;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_result = function
  | Ok s -> digest_schedule s
  | Error (f : Heuristics.failure) -> Printf.sprintf "fail@%d" f.Heuristics.n_scheduled

let heuristics =
  [ Heuristics.MemHEFT; Heuristics.MemMinMin; Heuristics.MemMaxMin; Heuristics.MemSufferage ]

let option_variants =
  [ ("default", Sched_state.default_options);
    ("batched", { Sched_state.default_options with Sched_state.comm_mode = Sched_state.Jit_batched });
    ("eager", { Sched_state.default_options with Sched_state.comm_mode = Sched_state.Eager });
    ("insertion",
     { Sched_state.default_options with Sched_state.proc_policy = Sched_state.Insertion }) ]

let alphas = [ 0.4; 0.7; 1.0 ]

let combined_digest ~platform dags =
  (* One digest covering every (dag x heuristic x alpha x options) cell,
     byte-for-byte the procedure the golden values were captured with. *)
  let b = Buffer.create 4096 in
  List.iter
    (fun g ->
      let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g platform) in
      List.iter
        (fun alpha ->
          let bound = alpha *. peak in
          let p = Platform.with_bounds platform ~m_blue:bound ~m_red:bound in
          List.iter
            (fun h ->
              List.iter
                (fun (_, options) ->
                  Buffer.add_string b (digest_result (Heuristics.run ~options h g p));
                  Buffer.add_char b '\n')
                option_variants)
            heuristics;
          (* rng tie-breaking path of MemHEFT *)
          Buffer.add_string b (digest_result (Heuristics.memheft ~rng:(Rng.create 7) g p));
          Buffer.add_char b '\n')
        alphas)
    dags;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Golden values captured from the pre-overhaul scheduler (O(n) ready-set
   rescans, three predecessor walks per estimate, linear staircase scans). *)
let golden =
  [ ("random n=30 x5", "c8466feca1f42bb6d44209e32ed3c51b", fun () ->
       (Workloads.platform_random, Workloads.small_rand_set ~count:5 ()));
    ("random n=300 x2", "ab1811e8dade97a64018edb3bc892fd7", fun () ->
       (Workloads.platform_random, Workloads.large_rand_set ~count:2 ~size:300 ()));
    ("LU n=8", "f3d97630040edf658ee0116585f8a264", fun () ->
       (Workloads.platform_mirage, [ Workloads.lu ~n:8 () ]));
    ("Cholesky n=8", "1586f49b8faec80f9e22f257ec5f2710", fun () ->
       (Workloads.platform_mirage, [ Workloads.cholesky ~n:8 () ])) ]

let golden_tests =
  List.map
    (fun (name, digest, mk) ->
      Alcotest.test_case name `Quick (fun () ->
          let platform, dags = mk () in
          check_string "golden digest" digest (combined_digest ~platform dags)))
    golden

(* ------------------------------------------- live optimised-vs-reference --- *)

let ab_families =
  [ ("random", fun () -> (Workloads.platform_random, Workloads.small_rand_set ~count:4 ()));
    ("LU", fun () -> (Workloads.platform_mirage, [ Workloads.lu ~n:6 () ]));
    ("Cholesky", fun () -> (Workloads.platform_mirage, [ Workloads.cholesky ~n:6 () ])) ]

let check_ab ~platform dags =
  List.iter
    (fun g ->
      let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g platform) in
      List.iter
        (fun alpha ->
          let bound = alpha *. peak in
          let p = Platform.with_bounds platform ~m_blue:bound ~m_red:bound in
          List.iter
            (fun (vname, options) ->
              let ctx h = Printf.sprintf "%s alpha=%g %s" h alpha vname in
              check_string (ctx "memheft")
                (digest_result (Heuristics.memheft_reference ~options g p))
                (digest_result (Heuristics.memheft ~options g p));
              check_string (ctx "memminmin")
                (digest_result (Heuristics.memminmin_reference ~options g p))
                (digest_result (Heuristics.memminmin ~options g p)))
            option_variants)
        alphas)
    dags

let ab_tests =
  List.map
    (fun (name, mk) ->
      Alcotest.test_case name `Quick (fun () ->
          let platform, dags = mk () in
          check_ab ~platform dags))
    ab_families

let ab_random_property =
  qtest ~count:60 "optimised = reference on random seeds" seed_arb (fun seed ->
      let g = dag_of_seed ~size:16 seed in
      let p = platform 40. in
      digest_result (Heuristics.memheft g p) = digest_result (Heuristics.memheft_reference g p)
      && digest_result (Heuristics.memminmin g p)
         = digest_result (Heuristics.memminmin_reference g p))

(* ------------------------------------------- probe vs reference estimate --- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Along MemHEFT runs on fuzz-family instances, under every comm mode and
   processor policy, every pool of every ready task: a probe with zero
   floors must reproduce [Sched_state.Reference.estimate] bit for bit, and
   a floor above every pool's EST must give [est = floor] and
   [eft = floor +. w].  A forgetting state and a full-history reference
   state run in lockstep, each committing its own estimate, so the probes
   also read staircases cut at the horizon, and the pools that lose the
   probe (the ones [Exact] branches on) are checked, not only the winner. *)
let probe_matches_reference =
  qtest ~count:100 "probe = Reference.estimate on every pool" seed_arb (fun seed ->
      let inst = Fuzz_gen.instance (Rng.create seed) in
      let g = inst.Fuzz_instance.dag and p = inst.Fuzz_instance.platform in
      let n = Dag.n_tasks g and k = Platform.n_pools p in
      let zero_floors = Array.make n 0. in
      let order = Rank.priority_list g in
      let run options =
        let st = Sched_state.create ~options g p in
        let rf = Sched_state.Reference.create ~options g p in
        let ok = ref true in
        let expect cond = if not cond then ok := false in
        let check_pools i =
          let reference = Array.init k (Sched_state.Reference.estimate rf i) in
          let best = Sched_state.probe st ~not_before:zero_floors i in
          expect (Bool.equal (best >= 0) (Array.exists Option.is_some reference));
          if best >= 0 then
            Array.iteri
              (fun q r ->
                match r with
                | None -> expect (not (Sched_state.probe_fits st q))
                | Some e ->
                  let e' = Sched_state.probe_estimate st i q in
                  expect (Sched_state.probe_fits st q);
                  expect (e'.Sched_state.task = i && e'.Sched_state.pool = q);
                  expect (same_bits e.Sched_state.est e'.Sched_state.est);
                  expect (same_bits e.Sched_state.eft e'.Sched_state.eft))
              reference;
          (* A binding floor on every fitting pool. *)
          let floor =
            Array.fold_left
              (fun acc r -> Option.fold ~none:acc ~some:(fun e -> Float.max acc e.Sched_state.est) r)
              0. reference
            +. 1.
          in
          let floors = Array.make n 0. in
          floors.(i) <- floor;
          if Sched_state.probe st ~not_before:floors i >= 0 then
            Array.iteri
              (fun q r ->
                if Option.is_some r then begin
                  let e' = Sched_state.probe_estimate st i q in
                  expect (same_bits e'.Sched_state.est floor);
                  expect (same_bits e'.Sched_state.eft (floor +. Sched_state.duration st i q))
                end)
              reference
        in
        (* MemHEFT's rule: commit the first task of the order that is ready
           and fits, until none does. *)
        let rec step () =
          List.iter check_pools (Sched_state.Reference.ready_tasks rf);
          expect
            (List.equal Int.equal (Sched_state.ready_tasks st) (Sched_state.Reference.ready_tasks rf));
          let pick =
            Array.find_opt
              (fun i ->
                Sched_state.is_ready st i && Sched_state.probe st ~not_before:zero_floors i >= 0)
              order
          in
          match pick with
          | None -> ()
          | Some i ->
            let q = Sched_state.probe st ~not_before:zero_floors i in
            (match Sched_state.Reference.estimate rf i q with
            | Some e -> Sched_state.commit rf e
            | None -> ok := false);
            Sched_state.commit st (Sched_state.probe_estimate st i q);
            if !ok then step ()
        in
        step ();
        !ok
      in
      List.for_all
        (fun comm_mode ->
          List.for_all
            (fun proc_policy -> run { Sched_state.comm_mode; proc_policy })
            [ Sched_state.Earliest_available; Sched_state.Insertion ])
        [ Sched_state.Jit_per_edge; Sched_state.Jit_batched; Sched_state.Eager ])

(* ------------------------------------------------ campaign jobs identity --- *)

let test_csv_jobs_identity () =
  (* The acceptance check at test scale: the campaign CSV bytes must be
     identical at --jobs 1 and --jobs 2. *)
  let dags = List.init 5 (fun seed -> dag_of_seed ~size:14 (300 + seed)) in
  let sweep_csv pool =
    let baselines = Sweep.baselines ?pool Workloads.platform_random dags in
    String.concat "\n"
      (List.concat_map
         (fun h ->
           List.map
             (fun a ->
               Csv.row_to_string
                 [ Csv.float_cell a.Sweep.alpha; Csv.float_cell a.Sweep.mean_ratio;
                   Csv.float_cell a.Sweep.success_rate ])
             (Sweep.normalized_sweep ?pool Workloads.platform_random ~alphas:[ 0.4; 0.7; 1.0 ] h
                baselines))
         [ Heuristics.MemHEFT; Heuristics.MemMinMin ])
  in
  let jobs n = Par.with_pool ~jobs:n (fun pool -> sweep_csv (Some pool)) in
  let j1 = jobs 1 in
  check_string "jobs=1 vs jobs=2" j1 (jobs 2)

let () =
  Alcotest.run "hotpath"
    [ ("golden digests", golden_tests);
      ("optimised vs reference", ab_tests @ [ ab_random_property; probe_matches_reference ]);
      ("jobs identity", [ Alcotest.test_case "campaign CSV bytes" `Quick test_csv_jobs_identity ])
    ]
