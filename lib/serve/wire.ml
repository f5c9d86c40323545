(* Binary wire codec for the scheduling daemon.  See wire.mli for the
   contract and DESIGN.md for the byte-level schema tables.

   Everything here is pure: framing and payload codecs work on strings, so
   the fuzz oracle and the tests can drive them without a live daemon.
   Decoding is total — every malformed input maps to [error], and the
   encode/decode pair is a byte-level fixpoint (floats travel as IEEE-754
   bit patterns, never through a decimal printer). *)

let version = 1
let max_frame = 16 * 1024 * 1024

(* Payload kind bytes.  Requests are < 0x80, responses >= 0x80. *)
let kind_request = 0x01
let kind_stats = 0x02
let kind_response = 0x81

(* Response status bytes. *)
let st_schedule = 0
let st_infeasible = 1
let st_failure = 2
let st_stats = 3

type algo = Heuristic of Heuristics.name | Multistart | Exact

let algo_byte = function
  | Heuristic Heuristics.HEFT -> 0
  | Heuristic Heuristics.MinMin -> 1
  | Heuristic Heuristics.MemHEFT -> 2
  | Heuristic Heuristics.MemMinMin -> 3
  | Heuristic Heuristics.MaxMin -> 4
  | Heuristic Heuristics.Sufferage -> 5
  | Heuristic Heuristics.MemMaxMin -> 6
  | Heuristic Heuristics.MemSufferage -> 7
  | Multistart -> 8
  | Exact -> 9

let algo_of_byte = function
  | 0 -> Some (Heuristic Heuristics.HEFT)
  | 1 -> Some (Heuristic Heuristics.MinMin)
  | 2 -> Some (Heuristic Heuristics.MemHEFT)
  | 3 -> Some (Heuristic Heuristics.MemMinMin)
  | 4 -> Some (Heuristic Heuristics.MaxMin)
  | 5 -> Some (Heuristic Heuristics.Sufferage)
  | 6 -> Some (Heuristic Heuristics.MemMaxMin)
  | 7 -> Some (Heuristic Heuristics.MemSufferage)
  | 8 -> Some Multistart
  | 9 -> Some Exact
  | _ -> None

type request = {
  id : int64;
  algo : algo;
  seed : int64;
  restarts : int;
  node_limit : int;
  platform : Platform.t;
  dag : Dag.t;
}

type proof =
  | Heuristic_result
  | Exact_optimal of { nodes : int; bound : float }
  | Exact_budget of { nodes : int; bound : float }

type ok_body = {
  r_algo : algo;
  makespan : float;
  peak_blue : float;
  peak_red : float;
  proof : proof;
  starts : float array;
  procs : int array;
  comm_starts : float option array;
}

type stats = {
  requests : int;
  cache_hits : int;
  cache_misses : int;
  computed : int;
  errors : int;
}

type response_body =
  | Schedule of ok_body
  | Infeasible of { n_scheduled : int; reason : string }
  | Failure of { code : int; message : string }
  | Stats_reply of stats

type response = { rid : int64; body : response_body }
type message = Request of request | Stats_request of int64 | Response of response

type error =
  | Truncated
  | Oversized of int
  | Bad_version of int
  | Bad_kind of int
  | Malformed of string

let error_code = function
  | Truncated -> 1
  | Oversized _ -> 2
  | Bad_version _ -> 3
  | Bad_kind _ -> 4
  | Malformed _ -> 5

let err_compute = 6

let error_to_string = function
  | Truncated -> "truncated frame: stream ended inside a length prefix or payload"
  | Oversized n -> Printf.sprintf "oversized frame: declared payload of %d bytes exceeds the %d-byte bound" n max_frame
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d (this daemon speaks version %d)" v version
  | Bad_kind k -> Printf.sprintf "unknown frame kind 0x%02x" k
  | Malformed m -> "malformed payload: " ^ m

let error_body e = Failure { code = error_code e; message = error_to_string e }

(* ------------------------------------------------------------- writers --- *)

let w_u8 b v = Buffer.add_uint8 b (v land 0xFF)
let w_u16 b v = Buffer.add_uint16_be b (v land 0xFFFF)

let w_u32 b v =
  if v < 0 || v > 0xFFFF_FFFF then invalid_arg "Wire: value out of u32 range";
  Buffer.add_int32_be b (Int32.of_int v)

let w_i64 b v = Buffer.add_int64_be b v
let w_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

(* -------------------------------------------------------------- readers --- *)

exception Fail of string

type cursor = { buf : string; mutable pos : int }

let need c n = if c.pos + n > String.length c.buf then raise (Fail "unexpected end of payload")

let r_u8 c =
  need c 1;
  let v = Char.code c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r_u16 c =
  need c 2;
  let v = String.get_uint16_be c.buf c.pos in
  c.pos <- c.pos + 2;
  v

let r_u32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_be c.buf c.pos) land 0xFFFF_FFFF in
  c.pos <- c.pos + 4;
  v

let r_i64 c =
  need c 8;
  let v = String.get_int64_be c.buf c.pos in
  c.pos <- c.pos + 8;
  v

let r_f64 c = Int64.float_of_bits (r_i64 c)

let r_str c =
  let n = r_u32 c in
  need c n;
  let s = String.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

(* Guard a count against its admission cap, if any, and against the bytes
   actually present (each element needs at least [per] bytes), before any
   allocation proportional to it. *)
let r_count ?(cap = max_int) c ~per ~what =
  let n = r_u32 c in
  if n > cap then raise (Fail (Printf.sprintf "%s count %d exceeds the admission cap %d" what n cap));
  if n * per > String.length c.buf - c.pos then
    raise (Fail (Printf.sprintf "%s count %d exceeds the remaining payload" what n));
  n

(* ----------------------------------------------------------- request --- *)

let max_procs_per_pool = 65_536
let max_restarts = 1_024
let max_node_limit = 10_000_000
let max_tasks = 131_072
let max_edges = 524_288

(* A u32 field the dispatcher sizes work or memory by, refused above its
   admission cap as soon as it is read — before the DAG. *)
let r_capped c ~cap ~what =
  let v = r_u32 c in
  if v > cap then raise (Fail (Printf.sprintf "%s %d exceeds the admission cap %d" what v cap));
  v

let encode_request_body b (r : request) =
  w_i64 b r.id;
  w_u8 b (algo_byte r.algo);
  w_i64 b r.seed;
  w_u32 b r.restarts;
  w_u32 b r.node_limit;
  let p = r.platform in
  w_u32 b (Platform.n_procs_of p Platform.Blue);
  w_u32 b (Platform.n_procs_of p Platform.Red);
  w_f64 b (Platform.capacity p Platform.Blue);
  w_f64 b (Platform.capacity p Platform.Red);
  let g = r.dag in
  w_u32 b (Dag.n_tasks g);
  let w_blue = Dag.Csr.w_blue g and w_red = Dag.Csr.w_red g in
  for i = 0 to Dag.n_tasks g - 1 do
    w_f64 b w_blue.(i);
    w_f64 b w_red.(i)
  done;
  w_u32 b (Dag.n_edges g);
  let e_src = Dag.Csr.e_src g and e_dst = Dag.Csr.e_dst g in
  let e_size = Dag.Csr.e_size g and e_comm = Dag.Csr.e_comm g in
  for k = 0 to Dag.n_edges g - 1 do
    w_u32 b e_src.(k);
    w_u32 b e_dst.(k);
    w_f64 b e_size.(k);
    w_f64 b e_comm.(k)
  done

let decode_request_body c =
  let id = r_i64 c in
  let algo =
    let a = r_u8 c in
    match algo_of_byte a with
    | Some algo -> algo
    | None -> raise (Fail (Printf.sprintf "unknown algorithm byte %d" a))
  in
  let seed = r_i64 c in
  let restarts = r_capped c ~cap:max_restarts ~what:"restarts" in
  let node_limit = r_capped c ~cap:max_node_limit ~what:"node_limit" in
  let p_blue = r_capped c ~cap:max_procs_per_pool ~what:"p_blue" in
  let p_red = r_capped c ~cap:max_procs_per_pool ~what:"p_red" in
  let m_blue = r_f64 c in
  let m_red = r_f64 c in
  let platform = Platform.make ~p_blue ~p_red ~m_blue ~m_red in
  let n_tasks = r_count c ~per:16 ~what:"task" ~cap:max_tasks in
  let builder = Dag.Builder.create () in
  for _ = 1 to n_tasks do
    let w_blue = r_f64 c in
    let w_red = r_f64 c in
    ignore (Dag.Builder.add_task builder ~w_blue ~w_red ())
  done;
  let n_edges = r_count c ~per:24 ~what:"edge" ~cap:max_edges in
  for _ = 1 to n_edges do
    let src = r_u32 c in
    let dst = r_u32 c in
    let size = r_f64 c in
    let comm = r_f64 c in
    Dag.Builder.add_edge builder ~src ~dst ~size ~comm
  done;
  { id; algo; seed; restarts; node_limit; platform; dag = Dag.Builder.finalize builder }

(* ---------------------------------------------------------- response --- *)

let encode_ok_body b (ok : ok_body) =
  w_u8 b (algo_byte ok.r_algo);
  w_f64 b ok.makespan;
  w_f64 b ok.peak_blue;
  w_f64 b ok.peak_red;
  (match ok.proof with
  | Heuristic_result -> w_u8 b 0
  | Exact_optimal { nodes; bound } ->
    w_u8 b 1;
    w_i64 b (Int64.of_int nodes);
    w_f64 b bound
  | Exact_budget { nodes; bound } ->
    w_u8 b 2;
    w_i64 b (Int64.of_int nodes);
    w_f64 b bound);
  let n = Array.length ok.starts in
  if Array.length ok.procs <> n then invalid_arg "Wire: starts/procs length mismatch";
  w_u32 b n;
  for i = 0 to n - 1 do
    w_f64 b ok.starts.(i);
    w_u32 b ok.procs.(i)
  done;
  w_u32 b (Array.length ok.comm_starts);
  Array.iter
    (function
      | None -> w_u8 b 0
      | Some t ->
        w_u8 b 1;
        w_f64 b t)
    ok.comm_starts

let decode_ok_body c =
  let r_algo =
    let a = r_u8 c in
    match algo_of_byte a with
    | Some algo -> algo
    | None -> raise (Fail (Printf.sprintf "unknown algorithm byte %d" a))
  in
  let makespan = r_f64 c in
  let peak_blue = r_f64 c in
  let peak_red = r_f64 c in
  let proof =
    match r_u8 c with
    | 0 -> Heuristic_result
    | 1 ->
      let nodes = Int64.to_int (r_i64 c) in
      let bound = r_f64 c in
      Exact_optimal { nodes; bound }
    | 2 ->
      let nodes = Int64.to_int (r_i64 c) in
      let bound = r_f64 c in
      Exact_budget { nodes; bound }
    | k -> raise (Fail (Printf.sprintf "unknown proof byte %d" k))
  in
  let n_tasks = r_count c ~per:12 ~what:"task" in
  let starts = Array.make n_tasks 0. in
  let procs = Array.make n_tasks 0 in
  for i = 0 to n_tasks - 1 do
    starts.(i) <- r_f64 c;
    procs.(i) <- r_u32 c
  done;
  let n_edges = r_count c ~per:1 ~what:"edge" in
  let comm_starts =
    Array.init n_edges (fun _ ->
        match r_u8 c with
        | 0 -> None
        | 1 -> Some (r_f64 c)
        | k -> raise (Fail (Printf.sprintf "unknown transfer flag %d" k)))
  in
  { r_algo; makespan; peak_blue; peak_red; proof; starts; procs; comm_starts }

let encode_body body =
  let b = Buffer.create 256 in
  (match body with
  | Schedule ok ->
    w_u8 b st_schedule;
    encode_ok_body b ok
  | Infeasible { n_scheduled; reason } ->
    w_u8 b st_infeasible;
    w_u32 b n_scheduled;
    w_str b reason
  | Failure { code; message } ->
    w_u8 b st_failure;
    w_u16 b code;
    w_str b message
  | Stats_reply s ->
    w_u8 b st_stats;
    w_i64 b (Int64.of_int s.requests);
    w_i64 b (Int64.of_int s.cache_hits);
    w_i64 b (Int64.of_int s.cache_misses);
    w_i64 b (Int64.of_int s.computed);
    w_i64 b (Int64.of_int s.errors));
  Buffer.contents b

let decode_body c =
  match r_u8 c with
  | s when s = st_schedule -> Schedule (decode_ok_body c)
  | s when s = st_infeasible ->
    let n_scheduled = r_u32 c in
    let reason = r_str c in
    Infeasible { n_scheduled; reason }
  | s when s = st_failure ->
    let code = r_u16 c in
    let message = r_str c in
    Failure { code; message }
  | s when s = st_stats ->
    let requests = Int64.to_int (r_i64 c) in
    let cache_hits = Int64.to_int (r_i64 c) in
    let cache_misses = Int64.to_int (r_i64 c) in
    let computed = Int64.to_int (r_i64 c) in
    let errors = Int64.to_int (r_i64 c) in
    Stats_reply { requests; cache_hits; cache_misses; computed; errors }
  | s -> raise (Fail (Printf.sprintf "unknown response status byte %d" s))

(* ---------------------------------------------------------- messages --- *)

let response_payload ~rid body_bytes =
  let b = Buffer.create (String.length body_bytes + 10) in
  w_u8 b version;
  w_u8 b kind_response;
  w_i64 b rid;
  Buffer.add_string b body_bytes;
  Buffer.contents b

let encode_message = function
  | Request r ->
    let b = Buffer.create 256 in
    w_u8 b version;
    w_u8 b kind_request;
    encode_request_body b r;
    Buffer.contents b
  | Stats_request id ->
    let b = Buffer.create 10 in
    w_u8 b version;
    w_u8 b kind_stats;
    w_i64 b id;
    Buffer.contents b
  | Response r -> response_payload ~rid:r.rid (encode_body r.body)

exception Unknown_kind of int

let decode_message payload =
  let c = { buf = payload; pos = 0 } in
  try
    let v = r_u8 c in
    if v <> version then Error (Bad_version v)
    else begin
      let kind = r_u8 c in
      let msg =
        if kind = kind_request then Request (decode_request_body c)
        else if kind = kind_stats then Stats_request (r_i64 c)
        else if kind = kind_response then begin
          let rid = r_i64 c in
          Response { rid; body = decode_body c }
        end
        else raise (Unknown_kind kind)
      in
      if c.pos <> String.length payload then Error (Malformed "trailing bytes after the message body")
      else Ok msg
    end
  with
  | Unknown_kind k -> Error (Bad_kind k)
  | Fail m -> Error (Malformed m)
  | Invalid_argument m -> Error (Malformed m)

(* ----------------------------------------------------------- framing --- *)

let frame payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Wire.frame: payload exceeds max_frame";
  let b = Buffer.create (n + 4) in
  w_u32 b n;
  Buffer.add_string b payload;
  Buffer.contents b

let next_frame buf ~pos =
  let len = String.length buf in
  if pos >= len then Ok None
  else if len - pos < 4 then Error Truncated
  else begin
    let declared = Int32.to_int (String.get_int32_be buf pos) land 0xFFFF_FFFF in
    if declared > max_frame then Error (Oversized declared)
    else if pos + 4 + declared > len then Error Truncated
    else Ok (Some (String.sub buf (pos + 4) declared, pos + 4 + declared))
  end

let decode_stream buf =
  let rec go acc pos =
    match next_frame buf ~pos with
    | Error e -> Error e
    | Ok None -> Ok (List.rev acc)
    | Ok (Some (payload, next)) -> (
      match decode_message payload with
      | Error e -> Error e
      | Ok m -> go (m :: acc) next)
  in
  go [] 0

(* ------------------------------------------------- ids and cache keys --- *)

let peek_request_id payload =
  if String.length payload >= 10 then Some (String.get_int64_be payload 2) else None

let cache_key payload =
  let b = Bytes.of_string payload in
  if Bytes.length b >= 10 then Bytes.fill b 2 8 '\000';
  Digest.bytes b
