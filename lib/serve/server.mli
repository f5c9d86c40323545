(** The serve loop: a persistent process turning a stream of length-prefixed
    scheduling requests into a stream of length-prefixed responses.

    {b Determinism invariant} (test-pinned, see test/test_serve.ml and
    [make serve-smoke]): for schedule requests, identical request bytes
    produce identical response bytes — regardless of the [--jobs] count,
    of where the request sits in the arrival order, and of the cache state.
    Responses are emitted in {e request order} (the order frames arrived),
    never in completion order, so the whole response stream is a
    deterministic function of the request stream.  Stats frames are the
    one documented carve-out: their reply is a deterministic function of
    the request-stream prefix and the cache's initial contents (still
    bit-identical across jobs counts), but by design it depends on that
    history.

    {b Concurrency}: the loop reads frames and looks up the cache
    serially; cache misses are shipped to the [lib/par] domain pool
    ({!Serve_dispatch.compute_bytes}) and the head-of-line response is
    written as soon as it resolves, also while the loop waits for the
    next frame or the rest of one: with a pool of 2 or more jobs, the
    loop never blocks in a read while the head of the line is computing,
    but waits ([Unix.select]) on the input and on a per-call self-pipe
    that each computation writes one byte into as it finishes.  With no
    pool or a 1-job pool every response is ready at submission, and the
    loop reads without waiting.  Backpressure is two-fold: the pool's
    bounded queue blocks submission, and [max_inflight] bounds the
    responses buffered for in-order emission.

    {b Shutdown}: on EOF, or when [stop] reports an interrupt (the CLI
    maps SIGINT to it), the loop drains every in-flight request, writes
    the remaining responses — complete frames only, a frame write is never
    abandoned halfway — and returns its counters.  Framing-destroying
    protocol errors (truncated or oversized frames) are answered with an
    error response and then treated like EOF, since the byte stream can no
    longer be resynchronised; errors that leave framing intact (bad
    version, bad kind, malformed body) are answered and the loop keeps
    serving. *)

type counters = {
  served : int;  (** response frames written *)
  requests : int;  (** well-formed schedule requests received *)
  computed : int;  (** dispatcher invocations (cache misses, or all requests without a cache) *)
  protocol_errors : int;  (** malformed frames answered with an error response *)
  max_inflight : int;  (** high-water mark of responses awaiting in-order emission *)
  cache : Serve_cache.counters option;  (** [None] when serving uncached *)
}

val serve :
  ?pool:Par.t ->
  ?cache:Serve_cache.t ->
  ?max_inflight:int ->
  ?stop:(unit -> bool) ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit ->
  counters
(** Serve [input] until EOF (or [stop ()], polled between reads and when
    a read is interrupted by a signal), writing responses to [output].
    Defaults: no pool (serial compute), no cache, [max_inflight = 64].
    The same pool and cache may be shared across successive calls — the
    socket mode of the CLI serves consecutive connections with one warm
    cache.  A call closes every descriptor it opens before it returns,
    however it ends (EOF, [stop], a framing error, a client gone): an
    abandoned connection's computations that have not started are
    cancelled, and those running are waited out. *)

val pp_counters : Format.formatter -> counters -> unit
