(* memsched: command-line front-end.

   Subcommands:
     generate    build a DAG (random / LU / Cholesky / the paper's toy) and
                 write it in the text format or as DOT
     schedule    run a heuristic on a DAG file and print the schedule,
                 Gantt chart and validation report
     exact       run the exact branch-and-bound scheduler
     export-lp   write the paper's ILP for an instance in CPLEX-LP format
     experiment  regenerate a table/figure of the paper
     check       seeded differential-fuzzing campaign over the oracle
                 registry (lib/check), with shrinking + corpus capture
     lint        compiler-libs static analysis enforcing the repo's
                 determinism / float-discipline / domain-safety /
                 io-purity / order-stability invariants (lib/lint)
     serve       persistent scheduling daemon: length-prefixed binary
                 requests in (stdin or a unix socket), responses out,
                 sharded over the domain pool with an LRU result cache
     serve-req   build binary request frames for the daemon from DAG files
     serve-show  decode a file of frames into human-readable text
     online      plan with online arrivals, replay the committed schedule
                 under perturbed realized costs, report degradation CSV *)

open Cmdliner

(* ------------------------------------------------------------ common args *)

let jobs_term =
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg "expected a positive integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt jobs_conv (Par.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel runtime (default: number of recognised CPUs; 1 = the \
           serial code path).  Results are bit-identical for every value.")

let platform_term =
  let p_blue =
    Arg.(value & opt int 2 & info [ "p-blue" ] ~docv:"N" ~doc:"Number of blue (CPU) processors.")
  in
  let p_red =
    Arg.(value & opt int 2 & info [ "p-red" ] ~docv:"N" ~doc:"Number of red (GPU) processors.")
  in
  let m_blue =
    Arg.(
      value
      & opt float infinity
      & info [ "m-blue" ] ~docv:"MEM" ~doc:"Blue memory capacity (default unbounded).")
  in
  let m_red =
    Arg.(
      value
      & opt float infinity
      & info [ "m-red" ] ~docv:"MEM" ~doc:"Red memory capacity (default unbounded).")
  in
  let make p_blue p_red m_blue m_red = Platform.make ~p_blue ~p_red ~m_blue ~m_red in
  Term.(const make $ p_blue $ p_red $ m_blue $ m_red)

let read_dag path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Dag.of_string s

let output_string_to path s =
  match path with
  | None -> print_string s
  | Some path ->
    let oc = open_out path in
    output_string oc s;
    close_out oc

(* --------------------------------------------------------------- generate *)

let generate_cmd =
  let kind =
    Arg.(
      required
      & pos 0 (some (enum [ ("daggen", `Daggen); ("lu", `Lu); ("cholesky", `Cholesky); ("dex", `Dex) ])) None
      & info [] ~docv:"KIND" ~doc:"One of: daggen, lu, cholesky, dex.")
  in
  let size = Arg.(value & opt int 30 & info [ "size"; "n" ] ~docv:"N" ~doc:"Task count (daggen) or tile count (lu/cholesky).") in
  let width = Arg.(value & opt float 0.3 & info [ "width" ] ~doc:"daggen width parameter in (0,1].") in
  let density = Arg.(value & opt float 0.5 & info [ "density" ] ~doc:"daggen density parameter in [0,1].") in
  let jumps = Arg.(value & opt int 5 & info [ "jumps" ] ~doc:"daggen maximum level jump.") in
  let seed = Arg.(value & opt int 2014 & info [ "seed" ] ~doc:"Random seed.") in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz DOT instead of the text format.") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout by default).") in
  let run kind size width density jumps seed dot out =
    let g =
      match kind with
      | `Dex -> Toy.dex ()
      | `Lu -> Lu.generate ~n:size ()
      | `Cholesky -> Cholesky.generate ~n:size ()
      | `Daggen ->
        let params =
          {
            Daggen.small_rand_params with
            Daggen.size;
            Daggen.width;
            Daggen.density;
            Daggen.jumps;
          }
        in
        Daggen.generate (Rng.create seed) params
    in
    output_string_to out (if dot then Dag.to_dot g else Dag.to_string g);
    Format.eprintf "%a@." Dag.pp_stats g
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a task graph.")
    Term.(const run $ kind $ size $ width $ density $ jumps $ seed $ dot $ out)

(* --------------------------------------------------------------- schedule *)

let heuristic_conv =
  Arg.enum
    [ ("heft", Heuristics.HEFT); ("minmin", Heuristics.MinMin); ("memheft", Heuristics.MemHEFT);
      ("memminmin", Heuristics.MemMinMin); ("maxmin", Heuristics.MaxMin);
      ("sufferage", Heuristics.Sufferage); ("memmaxmin", Heuristics.MemMaxMin);
      ("memsufferage", Heuristics.MemSufferage) ]

let schedule_cmd =
  let dag = Arg.(required & pos 0 (some file) None & info [] ~docv:"DAG" ~doc:"DAG file (text format).") in
  let heuristic =
    Arg.(
      value
      & opt heuristic_conv Heuristics.MemHEFT
      & info [ "heuristic"; "H" ]
          ~doc:"heft | minmin | memheft | memminmin | maxmin | sufferage | memmaxmin | memsufferage.")
  in
  let gantt = Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart.") in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print schedule statistics.") in
  let restarts =
    Arg.(
      value & opt int 0
      & info [ "restarts" ] ~docv:"K"
          ~doc:"MemHEFT only: additionally try $(docv) randomly tie-broken passes and keep the best.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the schedule to a file.")
  in
  let run platform dag heuristic gantt stats restarts jobs out =
    let g = read_dag dag in
    let result =
      if restarts > 0 && heuristic = Heuristics.MemHEFT then begin
        let m =
          Par.with_pool ~jobs (fun pool -> Multistart.memheft ~pool ~restarts g platform)
        in
        Printf.printf "multistart: %d/%d runs feasible\n" m.Multistart.n_feasible
          m.Multistart.n_runs;
        m.Multistart.best
      end
      else Heuristics.run heuristic g platform
    in
    match result with
    | Error f ->
      Printf.printf "infeasible: %s\n" f.Heuristics.reason;
      `Ok ()
    | Ok s ->
      let check_platform = Heuristics.validation_platform heuristic platform in
      (match Validator.validate g check_platform s with
      | Ok r ->
        Printf.printf "%s: makespan=%g peaks=(%g, %g)\n"
          (Heuristics.name_to_string heuristic)
          r.Validator.makespan r.Validator.peak_blue r.Validator.peak_red
      | Error errs -> List.iter print_endline errs);
      if gantt then print_string (Gantt.render g platform s);
      if stats then Format.printf "%a@." Sched_stats.pp (Sched_stats.compute g check_platform s);
      Option.iter (Schedule_io.write s) out;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Schedule a DAG with one of the list heuristics.")
    Term.(
      ret (const run $ platform_term $ dag $ heuristic $ gantt $ stats $ restarts $ jobs_term $ out))

(* --------------------------------------------------------------- validate *)

let validate_cmd =
  let dag = Arg.(required & pos 0 (some file) None & info [] ~docv:"DAG" ~doc:"DAG file.") in
  let sched = Arg.(required & pos 1 (some file) None & info [] ~docv:"SCHEDULE" ~doc:"Schedule file.") in
  let run platform dag sched jobs =
    let g = read_dag dag in
    let s = Schedule_io.read g sched in
    let result =
      if jobs > 1 then Par.with_pool ~jobs (fun pool -> Validator.validate ~pool g platform s)
      else Validator.validate g platform s
    in
    match result with
    | Ok r ->
      Printf.printf "valid: makespan=%g peaks=(%g, %g)\n" r.Validator.makespan r.Validator.peak_blue
        r.Validator.peak_red;
      `Ok ()
    | Error errs ->
      List.iter print_endline errs;
      `Error (false, "schedule is invalid")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Re-check a stored schedule against the full model oracle. The report is byte-identical \
          for every $(b,--jobs) value.")
    Term.(ret (const run $ platform_term $ dag $ sched $ jobs_term))

(* ------------------------------------------------------------------ exact *)

let exact_cmd =
  let dag = Arg.(required & pos 0 (some file) None & info [] ~docv:"DAG" ~doc:"DAG file.") in
  let nodes = Arg.(value & opt int 2_000_000 & info [ "node-limit" ] ~doc:"Branch-and-bound node budget.") in
  let run platform dag nodes jobs =
    let g = read_dag dag in
    let r =
      if jobs > 1 then Par.with_pool ~jobs (fun pool -> Exact.solve ~pool ~node_limit:nodes g platform)
      else Exact.solve ~node_limit:nodes g platform
    in
    let status =
      match r.Exact.status with
      | Exact.Proven_optimal -> "optimal"
      | Exact.Feasible -> "feasible (node budget hit)"
      | Exact.Proven_infeasible -> "infeasible"
      | Exact.Unknown -> "unknown (node budget hit)"
    in
    Printf.printf "status: %s\nnodes: %d\n" status r.Exact.nodes;
    if not (Float.is_nan r.Exact.makespan) then Printf.printf "makespan: %g\n" r.Exact.makespan;
    if not (Float.is_nan r.Exact.best_bound) then begin
      Printf.printf "best bound: %g\n" r.Exact.best_bound;
      match r.Exact.status with
      | Exact.Feasible when r.Exact.makespan > 0. ->
        Printf.printf "gap: %.2f%%\n"
          (100. *. (r.Exact.makespan -. r.Exact.best_bound) /. r.Exact.makespan)
      | _ -> ()
    end
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Exact branch-and-bound scheduling (small instances).")
    Term.(const run $ platform_term $ dag $ nodes $ jobs_term)

(* -------------------------------------------------------------- export-lp *)

let export_lp_cmd =
  let dag = Arg.(required & pos 0 (some file) None & info [] ~docv:"DAG" ~doc:"DAG file.") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"LP file (stdout by default).") in
  let run platform dag out =
    let g = read_dag dag in
    let platform =
      (* The ILP needs finite capacities; cap by the total file size. *)
      let cap m = if Float.equal m infinity then Dag.total_file_size g else m in
      Platform.with_bounds platform
        ~m_blue:(cap (Platform.capacity platform Platform.Blue))
        ~m_red:(cap (Platform.capacity platform Platform.Red))
    in
    let model = Ilp_model.build g platform in
    output_string_to out (Lp_format.to_string (Ilp_model.lp model));
    Format.eprintf "ILP: %d variables, %d constraints@." (Ilp_model.n_vars model)
      (Ilp_model.n_constrs model)
  in
  Cmd.v
    (Cmd.info "export-lp" ~doc:"Write the paper's ILP in CPLEX-LP format.")
    Term.(const run $ platform_term $ dag $ out)

(* ------------------------------------------------------------------ check *)

let check_cmd =
  let cases =
    Arg.(value & opt int 200 & info [ "cases"; "n" ] ~docv:"N" ~doc:"Number of fuzz cases.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Campaign seed.") in
  let oracle =
    Arg.(
      value
      & opt (some string) None
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Run a single oracle instead of the full registry (one of: %s)."
               (String.concat ", " Fuzz_oracle.names)))
  in
  let eps =
    Arg.(
      value
      & opt float Fuzz_oracle.default_config.Fuzz_oracle.eps
      & info [ "eps" ] ~docv:"EPS" ~doc:"Validation / comparison tolerance.")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report failures without minimising them.")
  in
  let corpus_dir =
    Arg.(
      value
      & opt string "test/corpus"
      & info [ "corpus-dir" ] ~docv:"DIR"
          ~doc:"Directory where shrunk failures are serialised for replay.")
  in
  let run cases seed oracle eps no_shrink corpus_dir jobs =
    let oracles =
      match oracle with
      | None -> Ok Fuzz_oracle.all
      | Some name -> (
        match Fuzz_oracle.find name with
        | Some o -> Ok [ o ]
        | None ->
          Error
            (Printf.sprintf "unknown oracle %S (expected one of: %s)" name
               (String.concat ", " Fuzz_oracle.names)))
    in
    match oracles with
    | Error msg -> `Error (false, msg)
    | Ok oracles ->
      let config = { Fuzz_oracle.default_config with Fuzz_oracle.eps } in
      let report =
        Par.with_pool ~jobs (fun pool ->
            Check.run ~pool ~config ~oracles ~shrink:(not no_shrink) ~cases ~seed ())
      in
      print_string (Check.render report);
      if Check.ok report then `Ok ()
      else begin
        let paths = Check.save_failures ~dir:corpus_dir report in
        List.iter (Printf.eprintf "corpus entry written: %s\n") paths;
        `Error (false, "oracle violations found")
      end
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Differential fuzzing: run the property-oracle registry on seeded random instances.")
    Term.(ret (const run $ cases $ seed $ oracle $ eps $ no_shrink $ corpus_dir $ jobs_term))

(* ------------------------------------------------------------------- lint *)

let lint_cmd =
  let root =
    Arg.(
      value & opt dir "."
      & info [ "root" ] ~docv:"DIR" ~doc:"Repository root to lint (expects lib/, bin/, ... below it).")
  in
  let rules =
    Arg.(
      value
      & opt_all string []
      & info [ "rule" ] ~docv:"ID"
          ~doc:
            (Printf.sprintf "Run only this rule (repeatable; default: all of %s)."
               (String.concat ", " Lint_rules.names)))
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
  in
  let typed =
    Arg.(
      value & flag
      & info [ "typed" ]
          ~doc:
            (Printf.sprintf
               "Also run the typed interprocedural pass over the .cmt artifacts (rules: %s); \
                build them first with `dune build @check`."
               (String.concat ", " Lint_typed_rules.names)))
  in
  let effects_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "effects-json" ] ~docv:"FILE"
          ~doc:
            "Write the per-function inferred-effect summary (effect kinds plus witness chains) \
             as JSON to $(docv).  Implies $(b,--typed).")
  in
  let debt =
    Arg.(
      value & flag
      & info [ "debt" ]
          ~doc:
            "Print the suppression-debt report (inline pragma and allowlist census by rule) \
             instead of linting; always exits 0.")
  in
  let all_rule_names = List.sort String.compare (Lint_rules.names @ Lint_typed_rules.names) in
  let run root rule_ids format typed effects_json debt jobs =
    if debt then (
      match Lint_engine.debt ~root () with
      | Error msg -> `Error (false, msg)
      | Ok d ->
        (match format with
        | `Text -> print_string (Lint_engine.render_debt_text d)
        | `Json -> print_string (Lint_engine.render_debt_json d));
        `Ok ())
    else
      match
        List.find_opt (fun id -> not (List.mem id all_rule_names)) rule_ids
      with
      | Some id ->
        `Error
          ( false,
            Printf.sprintf "unknown rule %S (expected one of: %s)" id
              (String.concat ", " all_rule_names) )
      | None -> (
        let syntactic_sel = List.filter_map Lint_rules.find rule_ids in
        let typed_sel = List.filter (fun id -> List.mem id Lint_typed_rules.names) rule_ids in
        let rules = if rule_ids = [] then Lint_rules.all else syntactic_sel in
        (* an explicitly selected typed rule or an effects dump turns the
           typed pass on even without --typed *)
        let typed = typed || effects_json <> None || typed_sel <> [] in
        let no_syntactic = match syntactic_sel with [] -> true | _ :: _ -> false in
        let syntactic =
          if rule_ids <> [] && no_syntactic then Ok []
          else Lint_engine.run ~rules ~jobs ~root ()
        in
        match syntactic with
        | Error msg -> `Error (false, msg)
        | Ok syntactic_findings -> (
          let typed_result =
            if not typed then Ok ([], None)
            else
              match Lint_engine.run_typed ~jobs ~root () with
              | Error msg -> Error msg
              | Ok (findings, pg, stats) ->
                Printf.eprintf "lint: typed pass over %d modules (%d cached, %d extracted%s)\n%!"
                  stats.Lint_engine.tp_modules stats.Lint_engine.tp_from_cache
                  stats.Lint_engine.tp_extracted
                  (if stats.Lint_engine.tp_stale > 0 then
                     Printf.sprintf ", %d stale skipped" stats.Lint_engine.tp_stale
                   else "");
                let findings =
                  if typed_sel = [] then findings
                  else
                    List.filter
                      (fun (f : Lint_finding.t) -> List.mem f.Lint_finding.rule typed_sel)
                      findings
                in
                Ok (findings, Some pg)
          in
          match typed_result with
          | Error msg -> `Error (false, msg)
          | Ok (typed_findings, pg) ->
            (match (effects_json, pg) with
            | Some path, Some pg ->
              let oc = open_out path in
              output_string oc (Lint_typed_rules.effects_json pg);
              close_out oc
            | _ -> ());
            let findings =
              List.sort_uniq Lint_finding.compare (syntactic_findings @ typed_findings)
            in
            (match format with
            | `Text -> print_string (Lint_engine.render_text findings)
            | `Json -> print_string (Lint_engine.render_json findings));
            if findings = [] then `Ok () else Stdlib.exit 1))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis (compiler-libs): enforce the determinism, float-discipline, \
          domain-safety, io-purity (no console output anywhere in lib/) and order-stability \
          invariants, plus (with $(b,--typed)) the typed interprocedural domain-race / \
          poly-compare / effect-purity rules over the .cmt call graph.  Exit code 1 on findings.")
    Term.(ret (const run $ root $ rules $ format $ typed $ effects_json $ debt $ jobs_term))

(* ------------------------------------------------------------------ serve *)

let serve_algo_conv =
  Arg.enum
    [ ("heft", Wire.Heuristic Heuristics.HEFT); ("minmin", Wire.Heuristic Heuristics.MinMin);
      ("memheft", Wire.Heuristic Heuristics.MemHEFT);
      ("memminmin", Wire.Heuristic Heuristics.MemMinMin);
      ("maxmin", Wire.Heuristic Heuristics.MaxMin);
      ("sufferage", Wire.Heuristic Heuristics.Sufferage);
      ("memmaxmin", Wire.Heuristic Heuristics.MemMaxMin);
      ("memsufferage", Wire.Heuristic Heuristics.MemSufferage);
      ("multistart", Wire.Multistart); ("exact", Wire.Exact) ]

let algo_to_string = function
  | Wire.Heuristic h -> Heuristics.name_to_string h
  | Wire.Multistart -> "multistart"
  | Wire.Exact -> "exact"

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a unix-domain socket at $(docv) instead of serving stdin/stdout.  \
             Connections are served one after another with a shared pool and warm cache, until \
             SIGINT.")
  in
  let cache_entries =
    Arg.(
      value & opt int 4096
      & info [ "cache-entries" ] ~docv:"N" ~doc:"Result-cache capacity in entries.")
  in
  let cache_bytes =
    Arg.(
      value
      & opt int (64 * 1024 * 1024)
      & info [ "cache-bytes" ] ~docv:"B" ~doc:"Result-cache capacity in response-body bytes.")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the result cache (recompute every request).")
  in
  let max_inflight =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Bound on responses buffered for in-order emission before reading stalls.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Do not print the counters summary to stderr.")
  in
  let run jobs socket cache_entries cache_bytes no_cache max_inflight quiet =
    let stop_flag = Atomic.make false in
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set stop_flag true));
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let stop () = Atomic.get stop_flag in
    let cache =
      if no_cache then None
      else Some (Serve_cache.create ~max_entries:cache_entries ~max_bytes:cache_bytes ())
    in
    let report c = if not quiet then Format.eprintf "serve: %a@." Server.pp_counters c in
    Par.with_pool ~jobs @@ fun pool ->
    match socket with
    | None ->
      report (Server.serve ~pool ?cache ~max_inflight ~stop ~input:Unix.stdin ~output:Unix.stdout ())
    | Some path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        if not (stop ()) then
          match Unix.accept sock with
          | fd, _ ->
            report (Server.serve ~pool ?cache ~max_inflight ~stop ~input:fd ~output:fd ());
            (try Unix.close fd with Unix.Unix_error _ -> ());
            accept_loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      in
      accept_loop ();
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Persistent scheduling daemon: length-prefixed binary request frames in, response frames \
          out, in request order.  Identical request bytes always produce identical response \
          bytes, for every --jobs value and cache state.")
    Term.(
      const run $ jobs_term $ socket $ cache_entries $ cache_bytes $ no_cache $ max_inflight
      $ quiet)

let serve_req_cmd =
  let dags =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"DAG" ~doc:"DAG files (one request frame per file, in argument order).")
  in
  let algo =
    Arg.(
      value
      & opt serve_algo_conv (Wire.Heuristic Heuristics.MemHEFT)
      & info [ "algo"; "H" ]
          ~doc:
            "heft | minmin | memheft | memminmin | maxmin | sufferage | memmaxmin | memsufferage \
             | multistart | exact.")
  in
  let id =
    Arg.(
      value & opt int64 1L
      & info [ "id" ] ~docv:"N" ~doc:"Id of the first request; later files count up from it.")
  in
  let seed =
    Arg.(value & opt int64 2014L & info [ "seed" ] ~docv:"S" ~doc:"Multistart tie-breaking seed.")
  in
  let restarts =
    Arg.(
      value & opt int 8
      & info [ "restarts" ] ~docv:"K" ~doc:"Multistart passes beyond the deterministic one.")
  in
  let node_limit =
    Arg.(value & opt int 200_000 & info [ "node-limit" ] ~docv:"N" ~doc:"Exact-solver node budget.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Append a stats-request frame after the request frames.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout by default).")
  in
  let append =
    Arg.(value & flag & info [ "append" ] ~doc:"Append to the output file instead of truncating.")
  in
  let run platform dags algo id seed restarts node_limit stats out append =
    let buf = Buffer.create 4096 in
    List.iteri
      (fun i path ->
        let req =
          {
            Wire.id = Int64.add id (Int64.of_int i);
            algo;
            seed;
            restarts;
            node_limit;
            platform;
            dag = read_dag path;
          }
        in
        Buffer.add_string buf (Wire.frame (Wire.encode_message (Wire.Request req))))
      dags;
    if stats then begin
      let sid = Int64.add id (Int64.of_int (List.length dags)) in
      Buffer.add_string buf (Wire.frame (Wire.encode_message (Wire.Stats_request sid)))
    end;
    match out with
    | None ->
      set_binary_mode_out stdout true;
      print_string (Buffer.contents buf)
    | Some path ->
      let flags =
        if append then [ Open_wronly; Open_creat; Open_append; Open_binary ]
        else [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
      in
      let oc = open_out_gen flags 0o644 path in
      output_string oc (Buffer.contents buf);
      close_out oc
  in
  Cmd.v
    (Cmd.info "serve-req" ~doc:"Build binary request frames for the scheduling daemon.")
    Term.(
      const run $ platform_term $ dags $ algo $ id $ seed $ restarts $ node_limit $ stats $ out
      $ append)

let serve_show_cmd =
  let file =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Frame file, requests or responses (stdin by default).")
  in
  let pp_proof = function
    | Wire.Heuristic_result -> ""
    | Wire.Exact_optimal { nodes; bound } -> Printf.sprintf " optimal nodes=%d bound=%g" nodes bound
    | Wire.Exact_budget { nodes; bound } ->
      Printf.sprintf " budget-hit nodes=%d bound=%g" nodes bound
  in
  let pp_message = function
    | Wire.Request r ->
      Printf.printf "#%Ld request %s tasks=%d edges=%d seed=%Ld restarts=%d node-limit=%d\n"
        r.Wire.id (algo_to_string r.Wire.algo) (Dag.n_tasks r.Wire.dag) (Dag.n_edges r.Wire.dag)
        r.Wire.seed r.Wire.restarts r.Wire.node_limit
    | Wire.Stats_request id -> Printf.printf "#%Ld stats-request\n" id
    | Wire.Response { rid; body } -> (
      match body with
      | Wire.Schedule b ->
        Printf.printf "#%Ld %s: makespan=%g peaks=(%g, %g)%s\n" rid (algo_to_string b.Wire.r_algo)
          b.Wire.makespan b.Wire.peak_blue b.Wire.peak_red (pp_proof b.Wire.proof)
      | Wire.Infeasible { n_scheduled; reason } ->
        Printf.printf "#%Ld infeasible after %d tasks: %s\n" rid n_scheduled reason
      | Wire.Failure { code; message } -> Printf.printf "#%Ld error %d: %s\n" rid code message
      | Wire.Stats_reply s ->
        Printf.printf "#%Ld stats: requests=%d hits=%d misses=%d computed=%d errors=%d\n" rid
          s.Wire.requests s.Wire.cache_hits s.Wire.cache_misses s.Wire.computed s.Wire.errors)
  in
  let run file =
    let s =
      match file with
      | Some path ->
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      | None ->
        set_binary_mode_in stdin true;
        let b = Buffer.create 4096 in
        (try
           while true do
             Buffer.add_channel b stdin 1
           done
         with End_of_file -> ());
        Buffer.contents b
    in
    match Wire.decode_stream s with
    | Ok msgs ->
      List.iter pp_message msgs;
      `Ok ()
    | Error e -> `Error (false, Wire.error_to_string e)
  in
  Cmd.v
    (Cmd.info "serve-show" ~doc:"Decode a file of daemon frames into human-readable text.")
    Term.(ret (const run $ file))

(* ----------------------------------------------------------------- online *)

let online_cmd =
  let dag =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DAG" ~doc:"DAG file (text format).")
  in
  let algo =
    Arg.(
      value
      & opt (enum [ ("memheft", Online.Heft_like); ("memminmin", Online.Minmin_like) ]) Online.Heft_like
      & info [ "algo" ] ~docv:"ALGO" ~doc:"Online heuristic: memheft or memminmin.")
  in
  let arrival =
    Arg.(
      value
      & opt (enum [ ("batch", `Batch); ("layered", `Layered); ("jittered", `Jittered) ]) `Batch
      & info [ "arrival" ] ~docv:"PROC"
          ~doc:"Arrival process: batch (all at t=0), layered or jittered.")
  in
  let gap =
    Arg.(
      value
      & opt float 1.0
      & info [ "gap" ] ~docv:"T" ~doc:"Release gap per DAG layer (layered/jittered).")
  in
  let arrival_seed =
    Arg.(value & opt int 0 & info [ "arrival-seed" ] ~docv:"S" ~doc:"Jitter seed (jittered).")
  in
  let level =
    Arg.(
      value
      & opt float 0.2
      & info [ "level" ] ~docv:"L" ~doc:"Multiplicative noise level on realized costs.")
  in
  let seeds =
    Arg.(value & opt int 8 & info [ "seeds" ] ~docv:"N" ~doc:"Replay under noise seeds 0..N-1.")
  in
  let policies =
    Arg.(
      value
      & opt
          (enum
             [ ("norepair", [ Replay.No_repair ]); ("rerank", [ Replay.Rerank_repair ]);
               ("both", [ Replay.No_repair; Replay.Rerank_repair ]) ])
          [ Replay.No_repair; Replay.Rerank_repair ]
      & info [ "policy" ] ~docv:"POL" ~doc:"Rescheduling policy: norepair, rerank or both.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"CSV output file (stdout by default).")
  in
  let run platform dag algo arrival gap arrival_seed level seeds policies jobs out =
    if not (gap >= 0.) then `Error (false, "expected a non-negative --gap")
    else if not (level >= 0.) then `Error (false, "expected a non-negative --level")
    else if seeds < 1 then `Error (false, "expected at least one noise seed")
    else begin
      let g = read_dag dag in
      let arrival =
        match arrival with
        | `Batch -> Arrival.Batch
        | `Layered -> Arrival.Layered { gap }
        | `Jittered -> Arrival.Jittered { gap; seed = arrival_seed }
      in
      let cfg =
        { Scenario.default_config with
          Scenario.algo;
          arrival;
          policies;
          noise_level = level;
          noise_seeds = List.init seeds (fun s -> s) }
      in
      let rows, summaries =
        Par.with_pool ~jobs @@ fun pool ->
        Scenario.run ~pool cfg [ (Filename.basename dag, g) ] platform
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf (Csv.row_to_string Scenario.csv_header);
      Buffer.add_char buf '\n';
      List.iter
        (fun r ->
          Buffer.add_string buf (Csv.row_to_string (Scenario.csv_row cfg r));
          Buffer.add_char buf '\n')
        rows;
      output_string_to out (Buffer.contents buf);
      List.iter
        (fun s ->
          Format.eprintf "%s %s: %d ok, %d failed, makespan ratio p50 %g p95 %g max %g@."
            s.Scenario.s_instance
            (Replay.policy_label s.Scenario.s_policy)
            s.Scenario.s_ok s.Scenario.s_failed s.Scenario.s_mk_p50 s.Scenario.s_mk_p95
            s.Scenario.s_mk_max)
        summaries;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:
         "Plan with online arrivals, replay the committed schedule under perturbed realized \
          costs, and report the degradation distribution as CSV.")
    Term.(
      ret
        (const run $ platform_term $ dag $ algo $ arrival $ gap $ arrival_seed $ level $ seeds
        $ policies $ jobs_term $ out))

(* ------------------------------------------------------------- experiment *)

let experiment_cmd =
  let which =
    Arg.(
      required
      & pos 0
          (some (enum (("all", None) :: List.map (fun (n, a) -> (n, Some a)) Figures.artefacts)))
          None
      & info [] ~docv:"WHICH"
          ~doc:"table1, figure8..figure15, ilp, ablations, extensions, online or all.")
  in
  let scale =
    Arg.(
      value
      & opt (enum Figures.scales) Figures.Quick
      & info [ "scale" ] ~docv:"SCALE"
          ~doc:"quick (seconds), default (the sizes EXPERIMENTS.md quotes) or paper (full SS 6).")
  in
  let out_dir = Arg.(value & opt string "results" & info [ "out-dir" ] ~doc:"CSV output directory.") in
  let run which scale out_dir jobs =
    (* The drivers are silent by default; the CLI is where narration is
       wanted, so wire a printing reporter. *)
    let report s =
      print_string s;
      flush stdout
    in
    Par.with_pool ~jobs @@ fun pool ->
    match which with
    | None -> `Ok (Figures.all ~out_dir ~report ~pool scale)
    | Some artefact -> (
      match Figures.run ~out_dir ~report ~pool scale artefact with
      | Ok () -> `Ok ()
      | Error msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table or figure of the paper.")
    Term.(ret (const run $ which $ scale $ out_dir $ jobs_term))

let () =
  let info =
    Cmd.info "memsched" ~version:"1.0.0"
      ~doc:"Memory-aware list scheduling for hybrid (dual-memory) platforms."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; schedule_cmd; validate_cmd; exact_cmd; export_lp_cmd; check_cmd;
            lint_cmd; serve_cmd; serve_req_cmd; serve_show_cmd; online_cmd; experiment_cmd ]))
