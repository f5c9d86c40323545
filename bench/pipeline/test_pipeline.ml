(* Tests of the pipeline benchmark: every workload driver at toy sizes, the
   summary helpers, and the trace writer.  Arguments: the memsched
   executable the serve workloads spawn, then BENCHMARK.json. *)

open Pipeline_bench

let daemon = Sys.argv.(1)
let benchmark_json = Sys.argv.(2)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let declared key =
  match Json.member key (Json.parse (read_file benchmark_json)) with
  | Some (Json.List items) -> items
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key

let names_of items = List.filter_map (fun i -> Option.bind (Json.member "name" i) Json.to_string) items

let toy =
  {
    Harness.setups = 2;
    lu_n = 6;
    lu_passes = 1;
    rand_dags = 2;
    rand_size = 60;
    open_requests = 40;
    open_rate = 400.;
    open_repeat = 0.5;
    open_tasks = (20, 40);
    burst_requests = 30;
    bursts = 2;
    burst_pool = 10;
    burst_tasks = (30, 60);
  }

let test_registry () =
  Alcotest.(check (list string)) "workloads" (names_of (declared "workloads")) Driver.names;
  let check_defs key defs =
    let items = declared key in
    Alcotest.(check (list string)) (key ^ " names") (names_of items)
      (List.map (fun d -> d.Metrics.name) defs);
    let field f = List.filter_map (fun i -> Option.bind (Json.member f i) Json.to_string) items in
    Alcotest.(check (list string)) (key ^ " units") (field "unit") (List.map (fun d -> d.Metrics.unit) defs);
    Alcotest.(check (list string)) (key ^ " directions") (field "better")
      (List.map (fun d -> match d.Metrics.better with Metrics.Lower -> "lower" | Higher -> "higher") defs)
  in
  check_defs "end_to_end" Metrics.end_to_end;
  check_defs "per_layer" Metrics.per_layer

(* The metric names of a printed result line, in order. *)
let printed_names line =
  match Json.member "metrics" (Json.parse line) with
  | Some (Json.Object fields) -> List.map fst fields
  | _ -> Alcotest.fail "result line has no metrics object"

let test_workload name () =
  let cfg = { Harness.seed = 7; sizes = toy; traced = true; daemon } in
  let run = List.assoc name Driver.workloads in
  let { Harness.result; spans } = run cfg in
  Alcotest.(check bool) "correct" true (Metrics.correct result);
  Alcotest.(check bool) "attempted some ops" true (result.attempted > 0);
  Alcotest.(check bool) "traced phase kept its tracer" true (Option.is_some spans);
  Alcotest.(check (list string)) "printed end-to-end names" (names_of (declared "end_to_end"))
    (printed_names (Metrics.json_line result Metrics.end_to_end));
  Alcotest.(check (list string)) "printed per-layer names" (names_of (declared "per_layer"))
    (printed_names (Metrics.json_line result Metrics.per_layer));
  List.iter
    (fun d ->
      let v = Metrics.value result d.Metrics.name in
      if not (Float.is_finite v && v > 0.) then Alcotest.failf "%s = %g, want finite and > 0" d.name v)
    Metrics.end_to_end;
  (* Same seed, same outputs. *)
  let again = run { cfg with traced = false } in
  Alcotest.(check string) "digest repeats" result.digest again.result.digest

let check_float = Alcotest.(check (float 1e-12))

let test_summaries () =
  let q (a, b, c) = [ a; b; c ] in
  (* Reference values from Python's statistics.quantiles(xs, n=4). *)
  Alcotest.(check (list (float 1e-12))) "1..10" [ 2.75; 5.5; 8.25 ]
    (q (Sample.quartiles (List.init 10 (fun i -> float_of_int (i + 1)))));
  Alcotest.(check (list (float 1e-12))) "1..4" [ 1.25; 2.5; 3.75 ] (q (Sample.quartiles [ 4.; 2.; 3.; 1. ]));
  Alcotest.(check (list (float 1e-12))) "two samples extrapolate" [ 0.5; 2.0; 3.5 ]
    (q (Sample.quartiles [ 3.; 1. ]));
  Alcotest.(check (list (float 1e-12))) "unsorted" [ 0.15; 0.4; 0.8 ]
    (q (Sample.quartiles [ 0.1; 0.7; 0.2; 0.9; 0.4 ]));
  check_float "spread" ((8.25 -. 2.75) /. 5.5) (Sample.spread (List.init 10 (fun i -> float_of_int (i + 1))));
  check_float "p50" 2. (Sample.pct 0.5 [ 3.; 1.; 2. ]);
  check_float "p99 of 1..100" 99.01 (Sample.pct 0.99 (List.init 100 (fun i -> float_of_int (i + 1))));
  check_float "no samples" 0. (Sample.pct 0.99 [])

let test_trace_roundtrip () =
  let tr = Spans.create ~traced:true in
  Spans.span tr "outer" (fun () ->
      ignore (Spans.span tr "inner" ~work:10 (fun () -> List.init 1000 Fun.id));
      ignore (Spans.span tr "inner" ~work:10 (fun () -> List.init 1000 Fun.id));
      let t = Clock.now () in
      Spans.record tr "request" ~id:1 ~start:t ~stop:(t +. 0.002);
      Spans.record tr "request" ~id:2 ~start:(t +. 0.001) ~stop:(t +. 0.003);
      Unix.sleepf 0.005);
  let file = "trace_roundtrip.json" in
  Spans.write_chrome tr file;
  let events =
    match Json.member "traceEvents" (Json.parse (read_file file)) with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents"
  in
  Sys.remove file;
  (* three complete spans, two async spans as begin/end pairs *)
  Alcotest.(check int) "events" 7 (List.length events);
  let phase e = Option.bind (Json.member "ph" e) Json.to_string in
  Alcotest.(check int) "complete" 3 (List.length (List.filter (fun e -> phase e = Some "X") events));
  Alcotest.(check int) "async begins" 2 (List.length (List.filter (fun e -> phase e = Some "b") events));
  let rows = Spans.table (Spans.spans tr) in
  Alcotest.(check (list string)) "layers in order" [ "outer"; "inner"; "request" ]
    (List.map (fun (n, _, _, _) -> n) rows);
  let _, _, total, self = List.find (fun (n, _, _, _) -> String.equal n "outer") rows in
  let children =
    List.fold_left
      (fun acc (n, _, t, _) -> if String.equal n "inner" then acc +. t else acc)
      0. rows
  in
  (* The two requests overlap: together they cover 3 ms, not 4. *)
  Alcotest.(check (float 1e-6)) "self = total - children union" (total -. children -. 0.003) self;
  match Spans.find tr "inner" with
  | Some l -> Alcotest.(check int) "work" 20 l.Spans.work
  | None -> Alcotest.fail "inner layer missing"

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "pipeline"
    [ ("registry", [ Alcotest.test_case "metric lists = BENCHMARK.json" `Quick test_registry ]);
      ( "workloads",
        List.map (fun name -> Alcotest.test_case (name ^ " at toy size") `Quick (test_workload name)) Driver.names );
      ( "helpers",
        [ Alcotest.test_case "quartiles and percentiles" `Quick test_summaries;
          Alcotest.test_case "trace writer round trip" `Quick test_trace_roundtrip ] ) ]
