(* The serve loop.  See server.mli for the full contract.

   Shape: one serial thread owns the input fd, the output fd, the result
   cache and the pending-response queue; pool workers only ever run the
   pure [Serve_dispatch.compute_bytes].  That confinement is what makes the
   daemon deterministic — cache lookups happen in arrival order, responses
   are emitted in arrival order (head-of-line, via [Par.poll]), and no
   counter is ever racing a worker.  The one thing a worker touches besides
   its own result is its job's [finished] flag and one byte into the
   loop's wake-up pipe, so a finished head of the line is written while
   the loop waits for input. *)

(* An in-flight computation.  [finished] is set (and the wake-up pipe
   rung) as the thunk returns, a moment before [fut] resolves. *)
type job = { fut : string Par.future; finished : bool Atomic.t }

type entry =
  | Ready of string  (* response body bytes, good to write *)
  | Running of string option * job  (* cache key (if caching) + in-flight compute *)

type counters = {
  served : int;
  requests : int;
  computed : int;
  protocol_errors : int;
  max_inflight : int;
  cache : Serve_cache.counters option;
}

let pp_counters ppf c =
  Format.fprintf ppf "served=%d requests=%d computed=%d protocol_errors=%d max_inflight=%d" c.served
    c.requests c.computed c.protocol_errors c.max_inflight;
  match c.cache with
  | None -> Format.fprintf ppf " cache=off"
  | Some cc -> Format.fprintf ppf " cache: %a" Serve_cache.pp_counters cc

(* ------------------------------------------------------------- raw IO --- *)

(* The client closed its end while we still had frames for it (socket
   mode): abandon the connection, keep the daemon alive. *)
exception Client_gone

(* Write a whole frame.  EINTR retries unconditionally: a frame write is
   never abandoned halfway, so the output stream only ever contains
   complete frames (the shutdown contract). *)
let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> raise Client_gone
  in
  go 0

(* An incremental frame reader: [read_step] makes one [Unix.read] toward
   the current frame (its 4-byte length prefix, then its payload), so the
   loop can wait for a completion between any two reads, mid-frame too.
   Read back to back, the steps issue the same reads as reading the prefix
   and then the payload whole. *)
type reader = {
  fd : Unix.file_descr;
  prefix : Bytes.t;
  mutable payload : Bytes.t option;  (* allocated once the prefix is complete *)
  mutable fill : int;  (* bytes of the prefix, then of the payload, read so far *)
}

let reader fd = { fd; prefix = Bytes.create 4; payload = None; fill = 0 }

(* EINTR (a signal interrupted the syscall) polls [stop]: an interrupt
   requested between frames or mid-read abandons the current partial frame
   and flows into the drain path. *)
let read_step ~stop r =
  let buf = match r.payload with Some p -> p | None -> r.prefix in
  let whole payload =
    r.payload <- None;
    r.fill <- 0;
    `Frame (Bytes.unsafe_to_string payload)
  in
  match Unix.read r.fd buf r.fill (Bytes.length buf - r.fill) with
  | 0 -> if r.fill = 0 && Option.is_none r.payload then `Eof else `Proto Wire.Truncated
  | k -> (
    r.fill <- r.fill + k;
    if r.fill < Bytes.length buf then `Partial
    else
      match r.payload with
      | Some payload -> whole payload
      | None ->
        let declared = Int32.to_int (Bytes.get_int32_be r.prefix 0) land 0xFFFF_FFFF in
        if declared > Wire.max_frame then `Proto (Wire.Oversized declared)
        else if declared = 0 then whole Bytes.empty
        else (
          r.payload <- Some (Bytes.create declared);
          r.fill <- 0;
          `Partial))
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> if stop () then `Stopped else `Partial

(* ------------------------------------------------------------ wake-up --- *)

(* A self-pipe, non-blocking at both ends: a pool worker writes one byte
   when its computation finishes, so one [Unix.select] waits for input and
   for completions alike. *)
type waker = { wake_r : Unix.file_descr; wake_w : Unix.file_descr }

let open_waker () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  { wake_r; wake_w }

(* Runs on a worker.  A full pipe already holds an unread wake-up. *)
let rec ring w =
  match Unix.single_write_substring w.wake_w "!" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ring w

let drain_wakes w =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read w.wake_r buf 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

(* --------------------------------------------------------------- serve --- *)

let serve ?pool ?cache ?(max_inflight = 64) ?(stop = fun () -> false) ~input ~output () =
  if max_inflight < 1 then invalid_arg "Server.serve: max_inflight must be >= 1";
  let pending : (int64 * entry) Queue.t = Queue.create () in
  (* Identical requests still in flight share one job (keyed by the
     same canonical digest as the cache), so a duplicate burst computes
     once and — crucially — a hit/miss verdict depends only on whether the
     key appeared earlier in the stream, never on completion timing.
     Confined to this loop like the cache; never iterated. *)
  let inflight : (string, job) Hashtbl.t = Hashtbl.create 16 in
  (* A serial pool resolves every future at submission, so only a
     multi-domain pool needs waking. *)
  let waker = match pool with Some p when Par.jobs p > 1 -> Some (open_waker ()) | _ -> None in
  let served = ref 0 and requests = ref 0 and computed = ref 0 in
  let protocol_errors = ref 0 and hits = ref 0 and misses = ref 0 and high_water = ref 0 in
  let emit_front () =
    let id, entry = Queue.pop pending in
    let body =
      match entry with
      | Ready b -> b
      | Running (key, j) ->
        let b = Par.await j.fut in
        (match (cache, key) with
        | Some c, Some k ->
          Serve_cache.add c k b;
          Hashtbl.remove inflight k
        | _ -> ());
        b
    in
    write_all output (Wire.frame (Wire.response_payload ~rid:id body));
    incr served
  in
  (* Stream every response whose turn has come: the head of the line is
     written when resolved, later completions wait for their position. *)
  let drain_ready () =
    let blocked = ref false in
    while (not !blocked) && not (Queue.is_empty pending) do
      match Queue.peek pending with
      | _, Ready _ -> emit_front ()
      | _, Running (_, j) ->
        (* [Par.await] waits out the gap between [finished] and resolution. *)
        if Atomic.get j.finished || Par.poll j.fut then emit_front () else blocked := true
    done
  in
  let push id entry =
    Queue.push (id, entry) pending;
    if Queue.length pending > !high_water then high_water := Queue.length pending;
    drain_ready ();
    (* Bound the responses buffered for in-order emission: block on the
       head of the line until the queue is back under the cap. *)
    while Queue.length pending >= max_inflight do
      emit_front ()
    done
  in
  let answer_error id e =
    incr protocol_errors;
    push id (Ready (Wire.encode_body (Wire.error_body e)))
  in
  let submit ~key req =
    incr computed;
    match pool with
    | Some pool ->
      let finished = Atomic.make false in
      let compute () = Serve_dispatch.compute_bytes req in
      let thunk =
        match waker with
        | None -> compute
        | Some w ->
          fun () ->
            Fun.protect compute ~finally:(fun () ->
                Atomic.set finished true;
                ring w)
      in
      let j = { fut = Par.submit pool thunk; finished } in
      (match key with Some k -> Hashtbl.replace inflight k j | None -> ());
      Running (key, j)
    | None -> (
      let b = Serve_dispatch.compute_bytes req in
      match (cache, key) with
      | Some c, Some k ->
        Serve_cache.add c k b;
        Ready b
      | _ -> Ready b)
  in
  let handle payload =
    match Wire.decode_message payload with
    | Ok (Wire.Request req) -> (
      incr requests;
      match cache with
      | None ->
        incr misses;
        push req.Wire.id (submit ~key:None req)
      | Some c -> (
        let key = Wire.cache_key payload in
        match Serve_cache.find c key with
        | Some body ->
          incr hits;
          push req.Wire.id (Ready body)
        | None -> (
          match Hashtbl.find_opt inflight key with
          | Some j ->
            (* A duplicate of a request still computing: share its job;
               the original pending entry owns the cache insertion. *)
            incr hits;
            push req.Wire.id (Running (None, j))
          | None ->
            incr misses;
            push req.Wire.id (submit ~key:(Some key) req))))
    | Ok (Wire.Stats_request id) ->
      let s =
        {
          Wire.requests = !requests;
          cache_hits = !hits;
          cache_misses = !misses;
          computed = !computed;
          errors = !protocol_errors;
        }
      in
      push id (Ready (Wire.encode_body (Wire.Stats_reply s)))
    | Ok (Wire.Response { rid; _ }) ->
      answer_error rid (Wire.Malformed "unexpected response frame from client")
    | Error e ->
      let id = Option.value (Wire.peek_request_id payload) ~default:0L in
      answer_error id e
  in
  (* Before a read, with a pool: while the head of the line is still
     computing, wait for input or for a completion, whichever comes first,
     so a finished head is written without waiting for the next frame.
     [false] when [stop] interrupted the wait. *)
  let rec await_input w =
    drain_ready ();
    match Queue.peek_opt pending with
    | Some (_, Running _) -> (
      match Unix.select [ input; w.wake_r ] [] [] (-1.) with
      | readable, _, _ ->
        if List.mem w.wake_r readable then drain_wakes w;
        List.mem input readable || await_input w
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> (not (stop ())) && await_input w
      (* a descriptor beyond select's range: block in the read as without a pool *)
      | exception Unix.Unix_error (Unix.EINVAL, _, _) -> true)
    | Some (_, Ready _) | None -> true
  in
  let input_due () = match waker with None -> true | Some w -> await_input w in
  let input_reader = reader input in
  let rec loop () =
    if (not (stop ())) && input_due () then
      match read_step ~stop input_reader with
      | `Partial -> loop ()
      | `Eof | `Stopped -> ()
      | `Frame payload ->
        handle payload;
        loop ()
      | `Proto e ->
        (* The byte stream cannot be resynchronised after a framing error:
           answer it, then flow into the drain path as if at EOF. *)
        answer_error 0L e
  in
  (* Every job must have rung before the pipe closes, or a late [ring]
     could write into a reused descriptor: cancel what has not started and
     wait out the rest (only an abandoned connection leaves any). *)
  let close_waker w =
    Queue.iter
      (fun (_, entry) ->
        match entry with
        | Running (_, j) when not (Par.cancel j.fut) -> (
          match Par.await j.fut with _ -> () | exception _ -> ())
        | Running _ | Ready _ -> ())
      pending;
    Unix.close w.wake_r;
    Unix.close w.wake_w
  in
  Fun.protect
    ~finally:(fun () -> Option.iter close_waker waker)
    (fun () ->
      try
        loop ();
        while not (Queue.is_empty pending) do
          emit_front ()
        done
      with Client_gone -> ());
  {
    served = !served;
    requests = !requests;
    computed = !computed;
    protocol_errors = !protocol_errors;
    max_inflight = !high_water;
    cache = Option.map Serve_cache.counters cache;
  }
