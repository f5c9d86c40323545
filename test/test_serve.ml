(* lib/serve: the binary wire codec, the LRU result cache, the dispatcher
   and the daemon loop itself.

   The pinned contract (server.mli, DESIGN.md): identical request bytes
   produce identical response bytes — for every jobs count, arrival order
   and cache state — and responses stream in request order.  The server
   tests below run the real [Server.serve] over OS pipes: a writer domain
   feeds the request script, the server runs on the test's own domain, and
   responses land in a temp file (so output size never deadlocks the
   pipe). *)

open Helpers

let algos =
  List.map
    (fun h -> Wire.Heuristic h)
    [ Heuristics.HEFT; Heuristics.MinMin; Heuristics.MemHEFT; Heuristics.MemMinMin;
      Heuristics.MaxMin; Heuristics.Sufferage; Heuristics.MemMaxMin; Heuristics.MemSufferage ]
  @ [ Wire.Multistart; Wire.Exact ]

let request ?(id = 1L) ?(algo = Wire.Heuristic Heuristics.MemHEFT) ?(seed = 7L) ?(restarts = 2)
    ?(node_limit = 5_000) ?platform g =
  let platform = Option.value platform ~default:(Helpers.platform 1e6) in
  { Wire.id; algo; seed; restarts; node_limit; platform; dag = g }

let req_frame r = Wire.frame (Wire.encode_message (Wire.Request r))

(* ------------------------------------------------------------------ codec *)

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; String.make 300 '\xAB' ] in
  let stream = String.concat "" (List.map Wire.frame payloads) in
  let rec pull pos acc =
    match Wire.next_frame stream ~pos with
    | Ok None -> List.rev acc
    | Ok (Some (p, next)) -> pull next (p :: acc)
    | Error e -> Alcotest.failf "next_frame: %s" (Wire.error_to_string e)
  in
  Alcotest.(check (list string)) "frames round-trip" payloads (pull 0 [])

let test_oversized_frame () =
  (match Wire.frame (String.make 10 ' ') with
  | s -> check_int "prefix+payload" 14 (String.length s));
  Alcotest.check_raises "frame refuses oversized payloads"
    (Invalid_argument "Wire.frame: payload exceeds max_frame") (fun () ->
      ignore (Wire.frame (String.make (Wire.max_frame + 1) ' ')));
  let huge = Bytes.create 8 in
  Bytes.set_int32_be huge 0 0xFFFF_FFFFl;
  match Wire.next_frame (Bytes.unsafe_to_string huge) ~pos:0 with
  | Error (Wire.Oversized _) -> ()
  | _ -> Alcotest.fail "declared 4 GiB payload not rejected as Oversized"

let request_fixpoint =
  qtest ~count:200 "request encode-decode-encode is the identity"
    QCheck.(pair seed_arb (int_range 0 9))
    (fun (seed, k) ->
      let g = dag_of_seed seed in
      let r = request ~id:(Int64.of_int seed) ~algo:(List.nth algos k) g in
      let payload = Wire.encode_message (Wire.Request r) in
      match Wire.decode_message payload with
      | Ok m -> Wire.encode_message m = payload
      | Error e -> QCheck.Test.fail_reportf "decode: %s" (Wire.error_to_string e))

let response_fixpoint =
  qtest ~count:100 "response encode-decode-encode is the identity"
    QCheck.(pair seed_arb (int_range 0 7))
    (fun (seed, k) ->
      let g = dag_of_seed ~size:8 seed in
      let r = request ~algo:(List.nth algos k) g in
      let body = Serve_dispatch.compute r in
      let payload = Wire.encode_message (Wire.Response { Wire.rid = r.Wire.id; body }) in
      match Wire.decode_message payload with
      | Ok m -> Wire.encode_message m = payload
      | Error e -> QCheck.Test.fail_reportf "decode: %s" (Wire.error_to_string e))

let decode_total =
  qtest ~count:500 "decoding arbitrary bytes never raises" QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      (match Wire.decode_message s with Ok _ | Error _ -> ());
      (match Wire.decode_stream s with Ok _ | Error _ -> ());
      true)

let test_cache_key_quotient () =
  let g = dag_of_seed 3 in
  let p1 = Wire.encode_message (Wire.Request (request ~id:1L g)) in
  let p2 = Wire.encode_message (Wire.Request (request ~id:0xDEADBEEFL g)) in
  let p3 = Wire.encode_message (Wire.Request (request ~id:1L ~seed:8L g)) in
  check_bool "ids do not reach the key" true (Wire.cache_key p1 = Wire.cache_key p2);
  check_bool "the seed does reach the key" false (Wire.cache_key p1 = Wire.cache_key p3)

(* The committed malformed-frame corpus: each file must come back as the
   expected protocol error — an error value, never an exception. *)
let wire_corpus_dir =
  if Sys.file_exists "corpus/wire" then "corpus/wire" else "test/corpus/wire"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_malformed_corpus () =
  let expect =
    [ ("truncated_prefix.bin", 1); ("truncated_payload.bin", 1); ("oversized.bin", 2);
      ("bad_version.bin", 3); ("bad_kind.bin", 4); ("malformed_body.bin", 5) ]
  in
  List.iter
    (fun (file, code) ->
      let bytes = read_file (Filename.concat wire_corpus_dir file) in
      let observed =
        match Wire.decode_stream bytes with
        | Error e -> Wire.error_code e
        | Ok _ -> Alcotest.failf "%s decoded cleanly" file
      in
      check_int file code observed)
    expect;
  match Wire.decode_stream (read_file (Filename.concat wire_corpus_dir "good_request.bin")) with
  | Ok [ Wire.Request _ ] -> ()
  | _ -> Alcotest.fail "good_request.bin must decode to one request"

(* ------------------------------------------------------------------ cache *)

let test_cache_lru () =
  let c = Serve_cache.create ~max_entries:2 () in
  Serve_cache.add c "a" "1";
  Serve_cache.add c "b" "2";
  Alcotest.(check (option string)) "a cached" (Some "1") (Serve_cache.find c "a");
  (* a was just touched, so inserting c evicts b *)
  Serve_cache.add c "c" "3";
  Alcotest.(check (option string)) "b evicted" None (Serve_cache.find c "b");
  Alcotest.(check (option string)) "a survives" (Some "1") (Serve_cache.find c "a");
  Alcotest.(check (option string)) "c cached" (Some "3") (Serve_cache.find c "c");
  let k = Serve_cache.counters c in
  check_int "entries" 2 k.Serve_cache.entries;
  check_int "evictions" 1 k.Serve_cache.evictions;
  check_int "hits" 3 k.Serve_cache.hits;
  check_int "misses" 1 k.Serve_cache.misses

let test_cache_byte_bound () =
  let c = Serve_cache.create ~max_bytes:10 () in
  Serve_cache.add c "a" (String.make 6 'x');
  Serve_cache.add c "b" (String.make 6 'y');
  let k = Serve_cache.counters c in
  check_int "stays under the byte bound" 6 k.Serve_cache.bytes;
  check_int "oldest entry evicted" 1 k.Serve_cache.evictions;
  (* replacing a value adjusts the byte account *)
  Serve_cache.add c "b" "z";
  check_int "replacement re-accounts bytes" 1 (Serve_cache.counters c).Serve_cache.bytes

(* --------------------------------------------------------------- dispatch *)

let test_dispatch_matches_direct () =
  let g = dag_of_seed 11 in
  let p = Helpers.platform 1e6 in
  match
    ( Serve_dispatch.compute (request ~algo:(Wire.Heuristic Heuristics.MemHEFT) ~platform:p g),
      Heuristics.run Heuristics.MemHEFT g p )
  with
  | Wire.Schedule b, Ok s ->
    let v = validate_ok g p s in
    check_float "makespan" v.Validator.makespan b.Wire.makespan;
    check_float "peak blue" v.Validator.peak_blue b.Wire.peak_blue;
    check_float "peak red" v.Validator.peak_red b.Wire.peak_red;
    check_bool "starts" true (b.Wire.starts = s.Schedule.starts);
    check_bool "procs" true (b.Wire.procs = s.Schedule.procs)
  | _ -> Alcotest.fail "dispatcher and direct run disagree on feasibility"

let test_dispatch_infeasible_and_exact () =
  let g = star ~size:5. 3 in
  (match Serve_dispatch.compute (request ~algo:(Wire.Heuristic Heuristics.MemHEFT) ~platform:(Helpers.platform 1.) g) with
  | Wire.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected a structured infeasible response");
  match Serve_dispatch.compute (request ~algo:Wire.Exact ~platform:(Helpers.platform 100.) g) with
  | Wire.Schedule { proof = Wire.Exact_optimal { nodes; bound }; makespan; _ } ->
    check_bool "searched at least one node" true (nodes >= 1);
    check_bool "bound certifies the optimum" true (bound <= makespan +. 1e-9)
  | _ -> Alcotest.fail "expected a proven-optimal exact response"

(* ----------------------------------------------------------------- server *)

(* Run the daemon over a request script: a writer domain feeds the script
   into a pipe, the server runs here (so pool submissions stay on the
   calling domain), responses go to a temp file. *)
let run_server ?pool ?cache ?max_inflight script =
  let in_r, in_w = Unix.pipe () in
  let path = Filename.temp_file "serve_test" ".bin" in
  let out = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let writer =
    Domain.spawn (fun () ->
        let b = Bytes.unsafe_of_string script in
        let rec go off =
          if off < Bytes.length b then go (off + Unix.write in_w b off (Bytes.length b - off))
        in
        go 0;
        Unix.close in_w)
  in
  let counters = Server.serve ?pool ?cache ?max_inflight ~input:in_r ~output:out () in
  Domain.join writer;
  Unix.close in_r;
  Unix.close out;
  let bytes = read_file path in
  Sys.remove path;
  (bytes, counters)

let script_of_requests rs = String.concat "" (List.map req_frame rs)

let requests_of_seeds seeds =
  List.mapi
    (fun k seed ->
      let algo = List.nth algos (k mod 9) (* everything but exact: keep the burst cheap *) in
      request ~id:(Int64.of_int (k + 1)) ~algo (dag_of_seed ~size:10 seed))
    seeds

let test_serve_basic () =
  let g = dag_of_seed 5 in
  let bytes, c = run_server (script_of_requests [ request ~id:42L g ]) in
  (match Wire.decode_stream bytes with
  | Ok [ Wire.Response { rid; body = Wire.Schedule _ } ] -> check_bool "id echoed" true (rid = 42L)
  | _ -> Alcotest.fail "expected exactly one schedule response");
  check_int "served" 1 c.Server.served;
  check_int "requests" 1 c.Server.requests;
  check_int "computed" 1 c.Server.computed

let test_serve_cache_hit () =
  let g = dag_of_seed 6 in
  (* same request bytes under three different ids, then a stats probe *)
  let script =
    script_of_requests [ request ~id:1L g; request ~id:2L g; request ~id:3L g ]
    ^ Wire.frame (Wire.encode_message (Wire.Stats_request 4L))
  in
  let cache = Serve_cache.create () in
  let bytes, c = run_server ~cache script in
  check_int "computed once" 1 c.Server.computed;
  match Wire.decode_stream bytes with
  | Ok
      [ Wire.Response ({ rid = 1L; _ } as r1); Wire.Response ({ rid = 2L; _ } as r2);
        Wire.Response ({ rid = 3L; _ } as r3); Wire.Response { rid = 4L; body = Wire.Stats_reply s }
      ] ->
    check_bool "cached response bodies byte-identical" true
      (Wire.encode_body r1.Wire.body = Wire.encode_body r2.Wire.body
      && Wire.encode_body r2.Wire.body = Wire.encode_body r3.Wire.body);
    check_int "stats: requests" 3 s.Wire.requests;
    check_int "stats: hits" 2 s.Wire.cache_hits;
    check_int "stats: misses" 1 s.Wire.cache_misses;
    check_int "stats: computed" 1 s.Wire.computed
  | _ -> Alcotest.fail "expected three responses and a stats reply"

let test_serve_jobs_parity () =
  let seeds = [ 21; 22; 23; 24; 21; 25; 22; 26; 27; 28 ] in
  let script = script_of_requests (requests_of_seeds seeds) in
  let run jobs =
    Par.with_pool ~jobs (fun pool -> run_server ~pool ~cache:(Serve_cache.create ()) script)
  in
  let b1, c1 = run 1 and b2, c2 = run 2 and b8, c8 = run 8 in
  check_bool "jobs=1 = jobs=2" true (b1 = b2);
  check_bool "jobs=1 = jobs=8" true (b1 = b8);
  check_int "computed jobs=1" c1.Server.computed c2.Server.computed;
  check_int "computed jobs=8" c1.Server.computed c8.Server.computed

let test_serve_arrival_order () =
  (* the same requests in two arrival orders: each id's response bytes are
     identical; only the stream order follows arrival *)
  let rs = requests_of_seeds [ 31; 32; 33; 34; 35 ] in
  let by_id bytes =
    match Wire.decode_stream bytes with
    | Ok msgs ->
      List.map
        (function
          | Wire.Response r -> (r.Wire.rid, Wire.encode_body r.Wire.body)
          | _ -> Alcotest.fail "expected only responses")
        msgs
      |> List.sort compare
    | Error e -> Alcotest.failf "decode: %s" (Wire.error_to_string e)
  in
  Par.with_pool ~jobs:4 (fun pool ->
      let fwd, _ = run_server ~pool ~cache:(Serve_cache.create ()) (script_of_requests rs) in
      let rev, _ =
        run_server ~pool ~cache:(Serve_cache.create ()) (script_of_requests (List.rev rs))
      in
      check_bool "per-id responses independent of arrival order" true (by_id fwd = by_id rev);
      (match Wire.decode_stream fwd with
      | Ok msgs ->
        let ids = List.map (function Wire.Response r -> r.Wire.rid | _ -> 0L) msgs in
        check_bool "responses stream in request order" true
          (ids = List.map (fun r -> r.Wire.id) rs)
      | Error _ -> Alcotest.fail "undecodable response stream"))

let test_serve_warm_cache_determinism () =
  (* one server fed script++script: the second pass must reproduce the
     first byte-for-byte out of the warm cache *)
  let script = script_of_requests (requests_of_seeds [ 41; 42; 43; 44 ]) in
  Par.with_pool ~jobs:4 (fun pool ->
      let once, _ = run_server ~pool ~cache:(Serve_cache.create ()) script in
      let twice, c = run_server ~pool ~cache:(Serve_cache.create ()) (script ^ script) in
      check_bool "warm pass reproduces the cold pass" true (twice = once ^ once);
      check_int "second pass fully cached" 4 c.Server.computed)

let test_serve_backpressure_burst () =
  (* a one-flush burst far above max_inflight: all served, in id order, and
     the pending queue never grew past the cap *)
  let n = 100 in
  let rs = List.init n (fun k -> request ~id:(Int64.of_int k) (dag_of_seed ~size:6 (50 + (k mod 7)))) in
  Par.with_pool ~jobs:4 (fun pool ->
      let bytes, c =
        run_server ~pool ~cache:(Serve_cache.create ()) ~max_inflight:4 (script_of_requests rs)
      in
      check_int "all served" n c.Server.served;
      check_bool "pending bounded by max_inflight" true (c.Server.max_inflight <= 4);
      match Wire.decode_stream bytes with
      | Ok msgs ->
        let ids = List.map (function Wire.Response r -> r.Wire.rid | _ -> -1L) msgs in
        check_bool "responses in request order" true (ids = List.init n Int64.of_int)
      | Error e -> Alcotest.failf "decode: %s" (Wire.error_to_string e))

let test_serve_error_midstream () =
  (* a framing-intact protocol error (bad kind) between two good requests:
     answered in place, the daemon keeps serving *)
  let g = dag_of_seed 61 in
  let bad =
    let p = Wire.encode_message (Wire.Request (request ~id:2L g)) in
    let b = Bytes.of_string p in
    Bytes.set b 1 '\x70';
    Wire.frame (Bytes.unsafe_to_string b)
  in
  let script = req_frame (request ~id:1L g) ^ bad ^ req_frame (request ~id:3L g) in
  let bytes, c = run_server script in
  check_int "one protocol error" 1 c.Server.protocol_errors;
  match Wire.decode_stream bytes with
  | Ok
      [ Wire.Response { rid = 1L; body = Wire.Schedule _ };
        Wire.Response { rid = 2L; body = Wire.Failure { code; _ } };
        Wire.Response { rid = 3L; body = Wire.Schedule _ } ] ->
    check_int "bad-kind error code" 4 code
  | _ -> Alcotest.fail "expected schedule, error, schedule"

let test_serve_admission_caps () =
  (* Requests declaring 2^32 - 1 processors, restarts or search nodes are
     refused as malformed (code 5) before their DAG is read, and the next
     request on the stream is still served. *)
  let g = dag_of_seed 63 in
  let forged ~id offsets =
    let b = Bytes.of_string (Wire.encode_message (Wire.Request (request ~id g))) in
    (* version, kind, id:i64, algo:u8, seed:i64, then restarts:u32 at 19,
       node_limit:u32 at 23, p_blue:u32 at 27 *)
    List.iter (fun off -> Bytes.set_int32_be b off 0xFFFF_FFFFl) offsets;
    Wire.frame (Bytes.unsafe_to_string b)
  in
  let script =
    forged ~id:1L [ 27 ] ^ forged ~id:2L [ 19 ] ^ forged ~id:3L [ 23 ]
    ^ forged ~id:4L [ 19; 23; 27 ]
    ^ req_frame (request ~id:5L g)
  in
  let bytes, c = run_server script in
  check_int "four protocol errors" 4 c.Server.protocol_errors;
  match Wire.decode_stream bytes with
  | Ok
      [ Wire.Response { rid = 1L; body = Wire.Failure { code = 5; _ } };
        Wire.Response { rid = 2L; body = Wire.Failure { code = 5; _ } };
        Wire.Response { rid = 3L; body = Wire.Failure { code = 5; _ } };
        Wire.Response { rid = 4L; body = Wire.Failure { code = 5; _ } };
        Wire.Response { rid = 5L; body = Wire.Schedule _ } ] -> ()
  | _ -> Alcotest.fail "expected four malformed-body errors (code 5), then a schedule"

let test_serve_truncated_tail () =
  (* a stream ending mid-frame: pending work drains, the cut is answered,
     exit is clean *)
  let g = dag_of_seed 62 in
  let script = req_frame (request ~id:1L g) ^ "\x00\x00" in
  let bytes, c = run_server script in
  check_int "truncation answered" 1 c.Server.protocol_errors;
  match Wire.decode_stream bytes with
  | Ok
      [ Wire.Response { rid = 1L; body = Wire.Schedule _ };
        Wire.Response { rid = 0L; body = Wire.Failure { code = 1; _ } } ] -> ()
  | _ -> Alcotest.fail "expected a schedule response then a truncation error"

let () =
  Alcotest.run "serve"
    [ ( "wire",
        [ Alcotest.test_case "framing round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "oversized frames rejected" `Quick test_oversized_frame;
          request_fixpoint; response_fixpoint; decode_total;
          Alcotest.test_case "cache key quotients out the id" `Quick test_cache_key_quotient;
          Alcotest.test_case "malformed corpus decodes to errors" `Quick test_malformed_corpus ] );
      ( "cache",
        [ Alcotest.test_case "LRU eviction order" `Quick test_cache_lru;
          Alcotest.test_case "byte bound" `Quick test_cache_byte_bound ] );
      ( "dispatch",
        [ Alcotest.test_case "agrees with a direct run" `Quick test_dispatch_matches_direct;
          Alcotest.test_case "infeasible and exact proofs" `Quick test_dispatch_infeasible_and_exact
        ] );
      ( "server",
        [ Alcotest.test_case "one request, one response" `Quick test_serve_basic;
          Alcotest.test_case "cache hits are byte-identical" `Quick test_serve_cache_hit;
          Alcotest.test_case "byte parity across jobs 1/2/8" `Quick test_serve_jobs_parity;
          Alcotest.test_case "arrival-order independence" `Quick test_serve_arrival_order;
          Alcotest.test_case "warm-cache determinism" `Quick test_serve_warm_cache_determinism;
          Alcotest.test_case "backpressure burst" `Quick test_serve_backpressure_burst;
          Alcotest.test_case "protocol error mid-stream" `Quick test_serve_error_midstream;
          Alcotest.test_case "admission caps" `Quick test_serve_admission_caps;
          Alcotest.test_case "truncated tail drains" `Quick test_serve_truncated_tail ] ) ]
