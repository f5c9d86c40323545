(* The pipeline benchmark.  Run from the repository root:

     dune build @all
     ./_build/default/bench/pipeline/pipeline.exe --workload <name|all> --seed N
         [--seconds S] [--trace 0|1|FILE] [--runs N] [--daemon PATH]

   Workloads: lu-big, rand-sweep, serve-open, serve-burst (see README.md).
   One workload runs in this process and prints every end-to-end metric as
   [name value unit], then one JSON line; [--trace 1] (or a file name)
   also runs a traced phase, prints the per-layer metrics and span table
   and writes a Chrome trace.  [all] and [--runs N] run each workload N
   times, each in a fresh process, and print the median and quartiles of
   every metric.  The exit code is 1 when any correctness check fails. *)

open Pipeline_bench

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 10 and trace = ref "0" in
  let runs = ref 1 and daemon = ref "_build/default/bin/memsched_cli.exe" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME  lu-big | rand-sweep | serve-open | serve-burst | all");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S  run length the workload sizes are derived from (default 10)");
      ("--trace", Arg.Set_string trace, "0|1|FILE  traced run; 1 writes _build/pipeline/trace-<workload>.json");
      ("--runs", Arg.Set_int runs, "N  runs per workload, each a fresh process (default 1)");
      ("--daemon", Arg.Set_string daemon, "PATH  memsched executable the serve workloads spawn") ]
  in
  let usage = "pipeline.exe --workload NAME --seed N [--seconds S] [--trace 0|1|FILE] [--runs N]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("pipeline: " ^ msg);
    exit 2
  in
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !runs < 1 then fail "--runs must be at least 1";
  if not (String.equal !workload "all" || List.mem !workload Driver.names) then
    fail ("unknown workload " ^ !workload);
  if not (Sys.file_exists !daemon) then fail ("daemon executable not found: " ^ !daemon);
  (* A daemon that dies mid-write must surface as an error, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let traced = not (String.equal !trace "0") in
  let ok =
    if String.equal !workload "all" || !runs > 1 then
      let workloads = if String.equal !workload "all" then Driver.names else [ !workload ] in
      Driver.run_children ~workloads ~runs:!runs
        ~child_args:
          [ "--seed"; string_of_int !seed; "--seconds"; string_of_int !seconds; "--trace";
            (if traced then "1" else "0"); "--daemon"; !daemon ]
    else
      let trace_file =
        if not traced then None
        else if String.equal !trace "1" then (
          (try Sys.mkdir "_build" 0o755 with Sys_error _ -> ());
          (try Sys.mkdir "_build/pipeline" 0o755 with Sys_error _ -> ());
          Some (Printf.sprintf "_build/pipeline/trace-%s.json" !workload))
        else Some !trace
      in
      let cfg =
        { Harness.seed = !seed; sizes = Harness.sizes_for ~seconds:!seconds; traced; daemon = !daemon }
      in
      Driver.run_one cfg ~workload:!workload ~seconds:!seconds ~trace_file
        ~pins:(Driver.read_pins "bench/pipeline/digests")
  in
  exit (if ok then 0 else 1)
