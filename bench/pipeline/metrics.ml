(* The metric registry and the result a workload run reports.  The lists
   here are the ones BENCHMARK.json declares; the test suite asserts they
   agree. *)

type better = Lower | Higher
type def = { name : string; unit : string; better : better }

let def name unit better = { name; unit; better }

(* Every workload reports every end-to-end metric; README.md says what each
   one means on each workload. *)
let end_to_end =
  [ def "setup_s" "s" Lower;
    def "tasks_per_s" "tasks/s" Higher;
    def "op_p50_ms" "ms" Lower;
    def "op_p99_ms" "ms" Lower;
    def "makespan_ratio" "ratio" Lower;
    def "solved_frac" "frac" Higher;
    def "rss_peak_mb" "MB" Lower ]

(* Per-layer metrics, named [<layer>.<quantity>] after the module the layer
   calls into.  A workload that does not exercise a layer reports 0 for it. *)
let per_layer =
  [ def "dag.gen_ms" "ms" Lower;
    def "dag.alloc_words_per_task" "words/task" Lower;
    def "rank.ms" "ms" Lower;
    def "rank.ns_per_task" "ns/task" Lower;
    def "rank.alloc_words_per_task" "words/task" Lower;
    def "heft.ns_per_task" "ns/task" Lower;
    def "heft.alloc_words_per_task" "words/task" Lower;
    def "heft.ms_per_instance" "ms" Lower;
    def "memheft.ns_per_task" "ns/task" Lower;
    def "memheft.alloc_words_per_task" "words/task" Lower;
    def "memheft.solved_p50_ms" "ms" Lower;
    def "memheft.refused_p50_ms" "ms" Lower;
    def "memheft.wasted_frac" "frac" Lower;
    def "memminmin.solved_p50_ms" "ms" Lower;
    def "memminmin.refused_p50_ms" "ms" Lower;
    def "memminmin.wasted_frac" "frac" Lower;
    def "validate.ns_per_task" "ns/task" Lower;
    def "validate.alloc_words_per_task" "words/task" Lower;
    def "validate.ms_per_op" "ms" Lower;
    def "trace.ns_per_task" "ns/task" Lower;
    def "trace.alloc_words_per_task" "words/task" Lower;
    def "stats.ns_per_task" "ns/task" Lower;
    def "stats.alloc_words_per_task" "words/task" Lower;
    def "wire.decode_us_per_req" "us" Lower;
    def "dispatch.p50_ms" "ms" Lower;
    def "dispatch.ms_per_req" "ms" Lower;
    def "cache.hit_frac" "frac" Higher;
    def "cache.computed" "count" Lower;
    def "server.hold_p50_ms" "ms" Lower;
    def "server.hold_p99_ms" "ms" Lower;
    def "par.busy_frac" "frac" Higher;
    def "par.submit_wait_s" "s" Lower;
    def "par.worker_wait_s" "s" Lower;
    def "par.speedup" "ratio" Higher;
    def "loadgen.late_p99_ms" "ms" Lower;
    def "machine.speed_factor" "ratio" Higher;
    def "gc.minor_words" "words" Lower;
    def "gc.major_collections" "count" Lower ]

type result = {
  workload : string;
  attempted : int;
  failed : int;  (** ops that raised, were rejected by the validator, or answered [Failure] *)
  checks : (string * bool) list;  (** named correctness checks beyond per-op failures *)
  digest : string;  (** hex MD5 of the workload's outputs *)
  values : (string * float) list;  (** measured metrics, end-to-end and per-layer *)
  counts : (string * int) list;  (** sample count behind a percentile metric *)
  notes : string list;  (** extra lines for the human report *)
}

let correct r = r.failed = 0 && List.for_all snd r.checks
let value r name = Option.value (List.assoc_opt name r.values) ~default:0.

(* One line per metric: [name value unit], with the sample count of a
   percentile. *)
let print_human r defs =
  List.iter
    (fun d ->
      let n =
        match List.assoc_opt d.name r.counts with Some n -> Printf.sprintf "  (n=%d)" n | None -> ""
      in
      Printf.printf "%-30s %.6g %s%s\n" d.name (value r d.name) d.unit n)
    defs

(* The last line of a run, the one a caller parses.  Values keep all the
   digits of the double they were measured as. *)
let json_line r defs =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" (correct r)
    r.attempted r.failed;
  List.iteri
    (fun k d ->
      if k > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" (Json.escape d.name)
        (value r d.name) (Json.escape d.unit))
    defs;
  Buffer.add_string b "}}";
  Buffer.contents b
