(* Running workloads: one in this process, or each in a fresh child process
   ([--workload all], [--runs N]) with the children's metrics summarised. *)

let workloads =
  [ ("lu-big", Inproc.lu_big); ("rand-sweep", Inproc.rand_sweep); ("serve-open", Serve_load.serve_open);
    ("serve-burst", Serve_load.serve_burst) ]

let names = List.map fst workloads

(* Pinned output digests: lines [workload seed seconds md5]; '#' starts a
   comment.  A run whose (workload, seed, seconds) is pinned must
   reproduce the digest, so a change that alters schedule bytes fails. *)
let read_pins path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line -> (
            match String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "") with
            | [ w; seed; seconds; digest ] when not (String.starts_with ~prefix:"#" w) -> (
              match (int_of_string_opt seed, int_of_string_opt seconds) with
              | Some seed, Some seconds -> go ((w, seed, seconds, digest) :: acc)
              | _ -> go acc)
            | _ -> go acc)
        in
        go [])

let pin_check pins ~workload ~seed ~seconds digest =
  List.filter_map
    (fun (w, s, n, d) ->
      if String.equal w workload && s = seed && n = seconds then
        Some (Printf.sprintf "digest = pinned %s" d, String.equal d digest)
      else None)
    pins

let print_trace_report tr ~plain_wall ~traced_wall ~file =
  print_endline "per-layer spans (traced phase):";
  Printf.printf "  %-12s %8s %12s %12s\n" "layer" "calls" "total_ms" "self_ms";
  List.iter
    (fun (name, calls, total, self) ->
      Printf.printf "  %-12s %8d %12.3f %12.3f\n" name calls (total *. 1e3) (self *. 1e3))
    (Spans.table (Spans.spans tr));
  Printf.printf "tracing overhead: traced %.3f s - untraced %.3f s = %+.3f s (%+.2f%%)\n" traced_wall
    plain_wall (traced_wall -. plain_wall)
    (100. *. (traced_wall -. plain_wall) /. plain_wall);
  Spans.write_chrome tr file;
  Printf.printf "trace written to %s\n" file

(* Run one workload here and print its report, ending with the JSON line.
   Returns whether every correctness check passed. *)
let run_one (cfg : Harness.config) ~workload ~seconds ~trace_file ~pins =
  let run = List.assoc workload workloads in
  Printf.printf "== %s  seed %d  seconds %d%s\n%!" workload cfg.seed seconds
    (if cfg.traced then "  traced" else "");
  let { Harness.result; spans } = run cfg in
  let checks = result.checks @ pin_check pins ~workload ~seed:cfg.seed ~seconds result.digest in
  let result = { result with checks } in
  Metrics.print_human result Metrics.end_to_end;
  if cfg.traced then Metrics.print_human result Metrics.per_layer;
  List.iter print_endline result.notes;
  Printf.printf "attempted %d  failed %d\ndigest %s\n" result.attempted result.failed result.digest;
  List.iter (fun (name, ok) -> Printf.printf "check %s: %s\n" name (if ok then "ok" else "FAILED")) checks;
  (match (spans, trace_file) with
  | Some (tr, plain_wall, traced_wall), Some file -> print_trace_report tr ~plain_wall ~traced_wall ~file
  | _ -> ());
  print_endline
    (Metrics.json_line result (if cfg.traced then Metrics.per_layer else Metrics.end_to_end));
  Metrics.correct result

(* ------------------------------------------------------ child processes --- *)

type child = { ok : bool; digest : string; values : (string * float) list }

let run_child args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc in
  let rev_lines = lines [] in
  let status = Unix.close_process_in ic in
  let digest =
    List.find_map
      (fun l -> if String.starts_with ~prefix:"digest " l then Some (String.sub l 7 (String.length l - 7)) else None)
      rev_lines
  in
  let values =
    match rev_lines with
    | last :: _ -> (
      match Json.member "metrics" (Json.parse last) with
      | Some (Json.Object ms) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_number))
          ms
      | _ -> []
      | exception Json.Parse_error _ -> [])
    | [] -> []
  in
  (List.rev rev_lines, { ok = status = Unix.WEXITED 0; digest = Option.value digest ~default:"?"; values })

(* Each (workload, run) in its own process; with [runs > 1], per metric the
   median and quartiles over the runs and their spread (IQR / median). *)
let run_children ~workloads ~runs ~child_args =
  let all_ok = ref true in
  List.iter
    (fun w ->
      let children =
        List.init runs (fun k ->
            let out, c = run_child ([ "--workload"; w ] @ child_args) in
            if runs = 1 then List.iter print_endline out
            else Printf.printf "%s run %d: %s  digest %s\n%!" w (k + 1) (if c.ok then "ok" else "FAILED") c.digest;
            c)
      in
      let ok = List.for_all (fun c -> c.ok) children in
      let digests = List.sort_uniq String.compare (List.map (fun c -> c.digest) children) in
      if runs > 1 then begin
        Printf.printf "== %s over %d runs: digests identical %b\n" w runs (List.length digests = 1);
        Printf.printf "  %-30s %14s %14s %14s %8s\n" "metric" "q1" "median" "q3" "spread";
        List.iter
          (fun (name, _) ->
            match List.filter_map (fun c -> List.assoc_opt name c.values) children with
            | [] -> ()
            | xs ->
              let q1, med, q3 = Sample.quartiles xs in
              Printf.printf "  %-30s %14.6g %14.6g %14.6g %7.2f%%\n" name q1 med q3 (100. *. Sample.spread xs))
          (List.hd children).values
      end;
      if not (ok && List.length digests = 1) then all_ok := false)
    workloads;
  !all_ok
