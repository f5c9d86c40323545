(* Beyond the paper (its SS 7 future work): scheduling on a platform with
   THREE memory pools — CPUs, GPUs and an FPGA, each with its own memory —
   using the list-scheduling core with per-pool durations, each schedule
   checked by the independent k-pool oracle Mschedule.

   Run with: dune exec examples/multi_accelerator.exe *)

let () =
  (* A random workflow whose tasks have a per-pool duration: some kernels
     like the GPU, some the FPGA, some only run well on CPUs. *)
  let g = Daggen.generate (Rng.create 11) { Daggen.small_rand_params with Daggen.size = 40 } in
  let rng = Rng.create 12 in
  (* Pool-major columns: durations.(pool).(task). *)
  let durations = Array.make_matrix 3 (Dag.n_tasks g) 0. in
  for i = 0 to Dag.n_tasks g - 1 do
    let base = float_of_int (Rng.int_incl rng 4 20) in
    let row =
      match Rng.int rng 3 with
      | 0 -> [| base; base /. 8.; base /. 2. |] (* GPU-friendly *)
      | 1 -> [| base; base *. 2.; base /. 10. |] (* FPGA-friendly *)
      | _ -> [| base /. 2.; base *. 4.; base *. 4. |] (* CPU-only-ish *)
    in
    Array.iteri (fun q w -> durations.(q).(i) <- w) row
  done;
  let platform caps =
    Platform.of_pools (List.map2 (fun procs capacity -> { Platform.procs; capacity }) [ 4; 2; 1 ] caps)
  in

  (* Memory-oblivious reference on unbounded pools. *)
  let unbounded = platform [ infinity; infinity; infinity ] in
  let s = Heuristics.heft ~durations g unbounded in
  let r = Mschedule.validate_exn g ~durations unbounded s in
  Printf.printf "3-pool HEFT: makespan %g, peaks (CPU %g, GPU %g, FPGA %g)\n\n" r.Mschedule.makespan
    r.Mschedule.peaks.(0) r.Mschedule.peaks.(1) r.Mschedule.peaks.(2);

  (* Shrink all three memories together. *)
  Printf.printf "%6s  %14s  %14s\n" "alpha" "MemHEFT" "MemMinMin";
  List.iter
    (fun alpha ->
      let caps = Array.to_list (Array.map (fun p -> max 1. (alpha *. p)) r.Mschedule.peaks) in
      let p = platform caps in
      let cell run =
        match run p with
        | Ok s ->
          let r = Mschedule.validate_exn g ~durations p s in
          Printf.sprintf "%10.0f" r.Mschedule.makespan
        | Error _ -> "infeasible"
      in
      Printf.printf "%6.2f  %14s  %14s\n" alpha
        (cell (Heuristics.memheft ~durations g))
        (cell (Heuristics.memminmin ~durations g)))
    [ 1.0; 0.8; 0.6; 0.5; 0.4; 0.3 ];
  Printf.printf
    "\nThe same memory/makespan trade-off as the dual-memory case carries over\n\
     to three heterogeneous accelerator pools (the paper's SS 7 future work).\n"
