(** Binary wire protocol of the scheduling daemon (the [serve] subcommand).

    Every message travels in a {e frame}: a 4-byte big-endian unsigned
    payload length followed by that many payload bytes.  A payload starts
    with a version byte and a kind byte; the remainder is the kind's body.
    All integers are big-endian; floats travel as their IEEE-754 bit
    patterns ({!Int64.bits_of_float}), so encode→decode→encode is a
    byte-level fixpoint — the property the [wire-roundtrip] fuzz oracle
    pins.  See DESIGN.md "The [lib/serve] scheduling daemon" for the full
    frame layout and schema tables.

    Decoding is {e total}: malformed input of any shape produces an
    {!error}, never an exception escape and never a hang.  The daemon maps
    these to structured error responses ({!error_body}). *)

val version : int
(** Protocol version carried in every payload (currently [1]). *)

val max_frame : int
(** Hard bound on a declared payload length (16 MiB).  A frame declaring
    more is rejected as {!Oversized} before any allocation. *)

(** {1 Requests} *)

val max_procs_per_pool : int
(** Admission cap on [p_blue] and [p_red] (65,536).  Like {!max_restarts}
    and {!max_node_limit}, a request above it decodes to {!Malformed}
    before its DAG is read: the dispatcher allocates per processor, per
    restart and per search node, so a forged u32 must not reach it.
    {!max_tasks} and {!max_edges} refuse a DAG the same way before the
    builder sees a task or an edge. *)

val max_restarts : int
(** Admission cap on [restarts] (1,024). *)

val max_node_limit : int
(** Admission cap on [node_limit] (10{^7}). *)

val max_tasks : int
(** Admission cap on a request DAG's task count (131,072), checked before
    the first task is read. *)

val max_edges : int
(** Admission cap on a request DAG's edge count (524,288: four per task at
    {!max_tasks}), checked before the first edge is read.  It binds below
    {!max_frame}, which alone would admit ~699,000 24-byte edges. *)

type algo =
  | Heuristic of Heuristics.name  (** one deterministic pass, bytes 0–7 *)
  | Multistart  (** MemHEFT multistart; [restarts]/[seed] options apply *)
  | Exact  (** branch-and-bound; [node_limit] option applies *)

val algo_byte : algo -> int
val algo_of_byte : int -> algo option

type request = {
  id : int64;  (** echoed verbatim in the response; not part of the cache key *)
  algo : algo;
  seed : int64;  (** multistart tie-breaking seed; ignored by other algos *)
  restarts : int;  (** multistart passes beyond the deterministic one *)
  node_limit : int;  (** exact-solver node budget *)
  platform : Platform.t;
  dag : Dag.t;  (** task costs and edges only; task names do not travel *)
}

(** {1 Responses} *)

type proof =
  | Heuristic_result  (** no optimality information *)
  | Exact_optimal of { nodes : int; bound : float }  (** search exhausted *)
  | Exact_budget of { nodes : int; bound : float }
      (** node budget hit; [bound] is the certified lower bound *)

type ok_body = {
  r_algo : algo;
  makespan : float;
  peak_blue : float;
  peak_red : float;
  proof : proof;
  starts : float array;  (** indexed by task id *)
  procs : int array;
  comm_starts : float option array;  (** indexed by edge id; [None] = same-memory *)
}

type stats = {
  requests : int;  (** well-formed schedule requests received *)
  cache_hits : int;
  cache_misses : int;
  computed : int;  (** dispatcher invocations (= misses while caching) *)
  errors : int;  (** protocol errors answered with an error response *)
}

type response_body =
  | Schedule of ok_body
  | Infeasible of { n_scheduled : int; reason : string }
  | Failure of { code : int; message : string }
  | Stats_reply of stats

type response = { rid : int64; body : response_body }

type message =
  | Request of request
  | Stats_request of int64
  | Response of response

(** {1 Protocol errors} *)

type error =
  | Truncated  (** stream ended inside a length prefix or payload *)
  | Oversized of int  (** declared payload length above {!max_frame} *)
  | Bad_version of int
  | Bad_kind of int
  | Malformed of string  (** body fails to parse or validate *)

val error_code : error -> int
(** Stable numeric code carried by error responses: truncated = 1,
    oversized = 2, bad version = 3, bad kind = 4, malformed = 5. *)

val err_compute : int
(** Code 6: the request decoded cleanly but the computation itself failed
    (the per-request error path — the daemon stays up). *)

val error_to_string : error -> string

val error_body : error -> response_body
(** [Failure] response body carrying {!error_code} and the rendered text. *)

(** {1 Codec} *)

val encode_message : message -> string
(** Payload bytes (no length prefix). *)

val decode_message : string -> (message, error) result
(** Total inverse of {!encode_message} on a full payload: checks the
    version and kind bytes, bounds every read, validates the DAG/platform
    through their builders, and rejects trailing bytes. *)

val encode_body : response_body -> string
(** The response payload from the status byte onward — the unit the result
    cache stores, so one cached computation serves any request id. *)

val response_payload : rid:int64 -> string -> string
(** Reassemble a full response payload from an id and {!encode_body}
    bytes.  [encode_message (Response r) =
    response_payload ~rid:r.rid (encode_body r.body)]. *)

(** {1 Framing} *)

val frame : string -> string
(** Prefix a payload with its 4-byte length.
    @raise Invalid_argument on a payload longer than {!max_frame}. *)

val next_frame : string -> pos:int -> ((string * int) option, error) result
(** Pull one frame out of a byte buffer: [Ok None] at a clean end of
    buffer, [Ok (Some (payload, next_pos))] otherwise.  [Error Truncated]
    when the buffer ends mid-frame. *)

val decode_stream : string -> (message list, error) result
(** Decode a whole buffer of consecutive frames (first error wins). *)

val peek_request_id : string -> int64 option
(** Best-effort id extraction from a request-shaped payload, so malformed
    bodies can still be answered under the id the client sent. *)

val cache_key : string -> string
(** Canonical content digest of a request payload: the 16-byte MD5 of the
    payload with its id field zeroed.  Two requests differing only in id
    therefore share one cache entry. *)
