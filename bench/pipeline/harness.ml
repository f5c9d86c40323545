(* What every workload driver shares: its configuration, the workload sizes,
   repeated set-up, peak-memory readings and the output fingerprint. *)

type sizes = {
  setups : int;  (** set-up repetitions per run; [setup_s] is their median *)
  lu_n : int;  (** tiled-LU order of lu-big (144 gives 1,005,720 tasks) *)
  lu_passes : int;
  rand_dags : int;
  rand_size : int;
  open_requests : int;
  open_rate : float;  (** requests per second *)
  open_repeat : float;  (** share of requests that repeat an earlier one's bytes *)
  open_tasks : int * int;
  burst_requests : int;  (** requests per burst *)
  bursts : int;
  burst_pool : int;  (** distinct DAGs the burst requests draw on *)
  burst_tasks : int * int;
}

(* Work scales with the run length, but is a function of it, never of a
   clock reading: a seed and a length always give the same outputs, so
   their digests can be pinned.  The factors put each workload near
   [seconds] of measured time on a 2-core x86-64 container. *)
let sizes_for ~seconds =
  {
    setups = 3;
    lu_n = 144;
    lu_passes = max 1 (seconds / 20);
    rand_dags = 15 * seconds;
    rand_size = 1000;
    open_requests = 200 * seconds;
    open_rate = 200.;
    open_repeat = 0.3;
    open_tasks = (30, 150);
    burst_requests = 1000;
    bursts = max 1 (seconds * 6 / 10);
    burst_pool = 500;
    burst_tasks = (200, 400);
  }

type config = {
  seed : int;
  sizes : sizes;
  traced : bool;  (** also run a traced pass and report per-layer metrics *)
  daemon : string;  (** path of the memsched executable the serve workloads spawn *)
}

let median xs = Sample.pct 0.5 xs
let ms s = s *. 1e3

(* Run [f] [n] times and keep the last result, with the speed-corrected wall
   time of each repetition.  Earlier results are handed to [discard] (a
   daemon to stop), then dropped and the heap compacted between repetitions
   (untimed), so they neither hold memory nor leave garbage for the next one
   to pay for. *)
let repeat_setup ?(discard = ignore) ~speed n f =
  let last = ref None and spans = ref [] in
  for _ = 1 to n do
    Option.iter discard !last;
    last := None;
    Gc.compact ();
    Speed.sample speed;
    let t0 = Clock.now () in
    let r = f () in
    spans := (t0, Clock.now ()) :: !spans;
    last := Some r
  done;
  Speed.sample speed;
  let times = List.rev_map (fun (start, stop) -> Speed.correct speed ~start ~stop) !spans in
  match !last with Some r -> (r, times) | None -> invalid_arg "repeat_setup: n < 1"

(* [VmHWM] of a process in MB: the resident-set high-water mark.  [0.] where
   /proc is unavailable. *)
let rss_peak_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0.
          | line when String.starts_with ~prefix:"VmHWM:" line -> (
            match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
            | [ _; kb; "kB" ] -> float_of_string kb /. 1024.
            | _ -> 0.)
          | _ -> scan ()
        in
        scan ())

(* Running MD5 over a workload's outputs: fed in pieces, folded into the
   digest chain every megabyte so 10^6-task schedules never sit in one
   string. *)
type fingerprint = { buf : Buffer.t; mutable chain : string }

let fingerprint () = { buf = Buffer.create (1 lsl 20); chain = "" }

let flush fp =
  fp.chain <- Digest.string (fp.chain ^ Buffer.contents fp.buf);
  Buffer.clear fp.buf

let add_int64 fp x =
  Buffer.add_int64_le fp.buf x;
  if Buffer.length fp.buf >= 1 lsl 20 then flush fp

let add_string fp s =
  Buffer.add_string fp.buf s;
  if Buffer.length fp.buf >= 1 lsl 20 then flush fp

let add_int fp i = add_int64 fp (Int64.of_int i)
let add_float fp f = add_int64 fp (Int64.bits_of_float f)

let hex fp =
  flush fp;
  Digest.to_hex fp.chain

(* GC deltas of the benchmark process around a phase. *)
type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_since m =
  let s = gc_mark () in
  [ ("gc.minor_words", s.minor_words -. m.minor_words);
    ("gc.major_collections", float_of_int (s.major_collections - m.major_collections)) ]

(* Throughput and latency of a timed phase. *)
type timing = {
  tasks_per_s : float;
  p50_ms : float;
  p99_ms : float;
  samples : int;  (** latency samples behind the percentiles *)
}

let timing ~tasks ~wall op_ms =
  {
    tasks_per_s = float_of_int tasks /. wall;
    p50_ms = Sample.pct 0.50 op_ms;
    p99_ms = Sample.pct 0.99 op_ms;
    samples = List.length op_ms;
  }

(* The median of each figure over several measurements (bursts of a run).
   A transient slowdown of the host spoils a burst or two, not the median
   one, and it would otherwise set the tail percentiles. *)
let median_timing ts =
  let med f = median (List.map f ts) in
  {
    tasks_per_s = med (fun t -> t.tasks_per_s);
    p50_ms = med (fun t -> t.p50_ms);
    p99_ms = med (fun t -> t.p99_ms);
    samples = List.fold_left (fun acc t -> acc + t.samples) 0 ts;
  }

(* What one timed phase of a workload leaves behind; a traced run makes two.
   [wall] and [timing] are speed-corrected where the workload corrects
   them; [raw_wall] is the uncorrected timed time. *)
type phase = {
  wall : float;
  raw_wall : float;
  timing : timing;
  tasks : int;  (** tasks through the timed part *)
  ops : int;
  aware : int;  (** memory-aware ops: the denominator of [solved_frac] *)
  solved : int;
  ratios : float list;  (** memory-aware makespan / HEFT makespan, per solved op *)
  failed : int;
  digest : string;
  rss_mb : float;
  layers : (string * float) list;  (** the per-layer metrics the phase measured *)
  tracer : Spans.t;
  notes : string list;
}

(* Run [phase] untraced and, on a traced run, once more traced. *)
let run_phases cfg phase =
  let plain = phase (Spans.create ~traced:false) in
  (plain, if cfg.traced then Some (phase (Spans.create ~traced:true)) else None)

(* What a workload driver hands back.  On a traced run, [spans] carries the
   tracer of the traced phase and the wall time of the untraced and traced
   phases, whose difference is the tracing overhead. *)
type outcome = { result : Metrics.result; spans : (Spans.t * float * float) option }

(* The generator layer ([lib/generators] + [Dag.Builder.finalize]), timed
   over the set-up repetitions. *)
let dag_metrics dag_tr =
  [ ("dag.gen_ms", Spans.ms_per_call dag_tr "dag");
    ( "dag.alloc_words_per_task",
      match Spans.find dag_tr "dag" with
      | Some l when l.work > 0 -> l.alloc_words /. float_of_int l.work
      | _ -> 0. ) ]

(* End-to-end metrics from the untraced phase, per-layer ones from the last
   phase run. *)
let result ~workload ~speed ~setup_times ~dag_tr ~checks ~plain ~traced =
  let last = Option.value traced ~default:plain in
  let checks =
    match traced with
    | None -> checks
    | Some t -> ("traced phase digest = untraced", String.equal t.digest plain.digest) :: checks
  in
  let n_ops = plain.timing.samples in
  let result =
    {
      Metrics.workload;
      attempted = plain.ops;
      failed = plain.failed + (match traced with Some t -> t.failed | None -> 0);
      checks;
      digest = plain.digest;
      values =
        [ ("setup_s", median setup_times);
          ("tasks_per_s", plain.timing.tasks_per_s);
          ("op_p50_ms", plain.timing.p50_ms);
          ("op_p99_ms", plain.timing.p99_ms);
          ("makespan_ratio", Stats.geomean plain.ratios);
          ("solved_frac", float_of_int plain.solved /. float_of_int (max 1 plain.aware));
          ("rss_peak_mb", plain.rss_mb) ]
        @ dag_metrics dag_tr
        @ (("machine.speed_factor", Speed.median_factor speed) :: last.layers);
      counts = [ ("op_p50_ms", n_ops); ("op_p99_ms", n_ops) ];
      notes =
        plain.notes
        @ [ Printf.sprintf "uncorrected: tasks_per_s %.6g (timed %.3f s, machine speed factor %.3f)"
              (float_of_int plain.tasks /. plain.raw_wall) plain.raw_wall (Speed.median_factor speed) ];
    }
  in
  { result; spans = Option.map (fun t -> (t.tracer, plain.wall, t.wall)) traced }
