(* The real [memsched serve] daemon as a child process, and the
   single-threaded client that loads it: one pipe pair, frames written when
   they fall due and the pipe accepts them, responses read whenever they are
   ready. *)

type reader = { fd : Unix.file_descr; mutable data : Bytes.t; mutable lo : int; mutable hi : int }

type t = {
  pid : int;
  to_daemon : Unix.file_descr;
  from_daemon : reader;
  mutable closed : bool;
}

(* Read what the pipe holds into the buffer; [false] at end of stream. *)
let fill r =
  if r.hi = Bytes.length r.data then begin
    let live = r.hi - r.lo in
    let d = if 2 * live > Bytes.length r.data then Bytes.create (2 * Bytes.length r.data) else r.data in
    Bytes.blit r.data r.lo d 0 live;
    r.data <- d;
    r.lo <- 0;
    r.hi <- live
  end;
  match Unix.read r.fd r.data r.hi (Bytes.length r.data - r.hi) with
  | 0 -> false
  | k ->
    r.hi <- r.hi + k;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

(* The next complete frame's payload, if the buffer holds one. *)
let next_frame r =
  if r.hi - r.lo < 4 then None
  else
    let len = Int32.to_int (Bytes.get_int32_be r.data r.lo) land 0xFFFF_FFFF in
    if r.hi - r.lo < 4 + len then None
    else
      let p = Bytes.sub_string r.data (r.lo + 4) len in
      r.lo <- r.lo + 4 + len;
      Some p

let rec read_frame r =
  match next_frame r with
  | Some p -> p
  | None -> if fill r then read_frame r else failwith "daemon closed its output mid-stream"

let rec write_all fd s off =
  if off < String.length s then
    match Unix.single_write_substring fd s off (String.length s - off) with
    | k -> write_all fd s (off + k)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ignore (Unix.select [] [ fd ] [] (-1.));
      write_all fd s off

let stats_frame id = Wire.frame (Wire.encode_message (Wire.Stats_request id))

(* Start [exe serve --jobs N] and wait for its first [Stats_request] reply,
   so the daemon is up (pool started) before anything is timed. *)
let spawn ~exe ~jobs =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--jobs"; string_of_int jobs; "--quiet" |] req_r resp_w
      Unix.stderr
  in
  Unix.close req_r;
  Unix.close resp_w;
  let d =
    {
      pid;
      to_daemon = req_w;
      from_daemon = { fd = resp_r; data = Bytes.create 65536; lo = 0; hi = 0 };
      closed = false;
    }
  in
  write_all d.to_daemon (stats_frame 0L) 0;
  (match Wire.decode_message (read_frame d.from_daemon) with
  | Ok (Wire.Response { body = Wire.Stats_reply _; _ }) -> ()
  | _ -> failwith "daemon: unexpected reply to the start-up ping");
  d

(* Close the request stream (the daemon drains and exits at EOF), read the
   rest of its output and reap it.  Returns the frames read. *)
let finish d =
  if not d.closed then (
    d.closed <- true;
    Unix.close d.to_daemon);
  let rec rest acc =
    match next_frame d.from_daemon with
    | Some p -> rest (p :: acc)
    | None -> if fill d.from_daemon then rest acc else List.rev acc
  in
  let tail = rest [] in
  Unix.close d.from_daemon.fd;
  (match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> failwith "daemon exited abnormally");
  tail

type run = {
  started : float array;  (** when the first byte of each frame was written *)
  answered : float array;  (** when each response frame was complete *)
  payloads : string array;  (** response payloads, in request order *)
  rss_mb : float;  (** the daemon's VmHWM, read after the last frame was written *)
}

(* Write [frames.(k)] no earlier than [due.(k)] (absolute clock times,
   non-decreasing), read one response per frame, then close the stream.
   Responses come back in request order, so the k-th frame read answers
   the k-th frame sent.  The daemon holds a finished response until its
   next read returns, so the stream is closed right after the last frame:
   EOF is what releases the tail, as for any client that is done. *)
let drive d ~frames ~due =
  let n = Array.length frames in
  let started = Array.make n 0. and answered = Array.make n 0. and payloads = Array.make n "" in
  let next = ref 0 and off = ref 0 and writing = ref false and got = ref 0 in
  let rss_mb = ref 0. in
  let begin_due now =
    if (not !writing) && !next < n && due.(!next) <= now then (
      writing := true;
      off := 0;
      started.(!next) <- now)
  in
  let rec push () =
    if !writing then
      let f = frames.(!next) in
      match Unix.single_write_substring d.to_daemon f !off (String.length f - !off) with
      | k ->
        off := !off + k;
        if !off = String.length f then (
          writing := false;
          incr next;
          if !next = n then (
            rss_mb := Harness.rss_peak_mb (Some d.pid);
            d.closed <- true;
            Unix.close d.to_daemon)
          else begin_due (Clock.now ()));
        push ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  Unix.set_nonblock d.to_daemon;
  while !got < n do
    let now = Clock.now () in
    begin_due now;
    let timeout =
      if !writing || !next >= n then -1. else Float.max 0. (due.(!next) -. now)
    in
    let writers = if !writing then [ d.to_daemon ] else [] in
    let readable, writable, _ =
      try Unix.select [ d.from_daemon.fd ] writers [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (match readable with
    | [] -> ()
    | _ ->
      if not (fill d.from_daemon) then failwith "daemon closed its output early";
      let t = Clock.now () in
      let rec take () =
        match next_frame d.from_daemon with
        | Some p when !got < n ->
          answered.(!got) <- t;
          payloads.(!got) <- p;
          incr got;
          take ()
        | Some _ -> failwith "daemon sent more responses than requests"
        | None -> ()
      in
      take ());
    match writable with [] -> () | _ -> push ()
  done;
  { started; answered; payloads; rss_mb = !rss_mb }
