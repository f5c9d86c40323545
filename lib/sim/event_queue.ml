(* Deterministic event min-heap for the discrete-event reconstructions.

   Entries are ordered by (time, kind); ties on both pop in REVERSE insertion
   order.  That tie rule is not arbitrary: the historical [Events.events_of]
   accumulated events by consing onto a list (reversing generation order) and
   then ran the stable [List.sort] by (time, kind), so simultaneous events of
   the same kind were emitted latest-generated-first.  Reproducing that order
   keeps every float accumulation in [Events.memory_trace] — and with it
   every golden digest — bit-identical after the refactor onto this heap.

   Layout: structure-of-arrays.  The heap is four parallel arrays
   ([times]/[kinds]/[seqs]/[payloads]) indexed by heap slot, not an array of
   boxed entry records: a million-event drain touches flat float/int arrays
   with no per-entry allocation and no option unwrapping.  The payload array
   is allocated lazily on the first [add] (there is no manufactured dummy
   value of ['a]) and dropped when the queue empties so popped payloads are
   not retained. *)

type 'a t = {
  mutable times : float array;
  mutable kinds : int array;
  mutable seqs : int array;  (* insertion counter; larger = inserted later *)
  mutable payloads : 'a array;  (* [||] until the first add after empty *)
  mutable len : int;
  mutable next_seq : int;
}

let create ?(capacity = 16) () =
  let capacity = max 1 capacity in
  {
    times = Array.make capacity 0.;
    kinds = Array.make capacity 0;
    seqs = Array.make capacity 0;
    payloads = [||];
    len = 0;
    next_seq = 0;
  }

let length q = q.len
let is_empty q = q.len = 0

(* Strict "slot i pops before slot j".  Times compare with [Float.compare]
   (total order); NaN times are rejected at [add].  Equal (time, kind) prefer
   the larger seq — the reverse-insertion tie rule documented above. *)
let before q i j =
  let c = Float.compare q.times.(i) q.times.(j) in
  if c <> 0 then c < 0
  else if q.kinds.(i) <> q.kinds.(j) then q.kinds.(i) < q.kinds.(j)
  else q.seqs.(i) > q.seqs.(j)

let swap q i j =
  let t = q.times.(i) in
  q.times.(i) <- q.times.(j);
  q.times.(j) <- t;
  let k = q.kinds.(i) in
  q.kinds.(i) <- q.kinds.(j);
  q.kinds.(j) <- k;
  let s = q.seqs.(i) in
  q.seqs.(i) <- q.seqs.(j);
  q.seqs.(j) <- s;
  let p = q.payloads.(i) in
  q.payloads.(i) <- q.payloads.(j);
  q.payloads.(j) <- p

let grow q =
  let cap = 2 * Array.length q.times in
  let times = Array.make cap 0. in
  Array.blit q.times 0 times 0 q.len;
  q.times <- times;
  let kinds = Array.make cap 0 in
  Array.blit q.kinds 0 kinds 0 q.len;
  q.kinds <- kinds;
  let seqs = Array.make cap 0 in
  Array.blit q.seqs 0 seqs 0 q.len;
  q.seqs <- seqs;
  let payloads = Array.make cap q.payloads.(0) in
  Array.blit q.payloads 0 payloads 0 q.len;
  q.payloads <- payloads

let add q ~time ~kind payload =
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  if Array.length q.payloads = 0 then q.payloads <- Array.make (Array.length q.times) payload;
  if q.len = Array.length q.times then grow q;
  let i = ref q.len in
  q.len <- q.len + 1;
  q.times.(!i) <- time;
  q.kinds.(!i) <- kind;
  q.seqs.(!i) <- q.next_seq;
  q.payloads.(!i) <- payload;
  q.next_seq <- q.next_seq + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before q !i parent then begin
      swap q !i parent;
      i := parent
    end
    else continue := false
  done

let sift_down q =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < q.len && before q l !smallest then smallest := l;
    if r < q.len && before q r !smallest then smallest := r;
    if !smallest <> !i then begin
      swap q !i !smallest;
      i := !smallest
    end
    else continue := false
  done

let pop q =
  if q.len = 0 then None
  else begin
    let time = q.times.(0) and kind = q.kinds.(0) and payload = q.payloads.(0) in
    q.len <- q.len - 1;
    if q.len > 0 then begin
      let last = q.len in
      q.times.(0) <- q.times.(last);
      q.kinds.(0) <- q.kinds.(last);
      q.seqs.(0) <- q.seqs.(last);
      q.payloads.(0) <- q.payloads.(last);
      sift_down q
    end
    else
      (* Drop the payload array entirely: popped payloads must not be kept
         alive by stale heap slots. *)
      q.payloads <- [||];
    Some (time, kind, payload)
  end

let drain_into q ~times ~kinds ~payloads =
  let n = q.len in
  if Array.length times < n || Array.length kinds < n || Array.length payloads < n then
    invalid_arg "Event_queue.drain_into: destination arrays shorter than the queue";
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    match pop q with
    | None -> continue := false
    | Some (time, kind, payload) ->
      times.(!k) <- time;
      kinds.(!k) <- kind;
      payloads.(!k) <- payload;
      incr k
  done;
  !k

let drain q =
  let acc = ref [] in
  let rec go () =
    match pop q with
    | None -> List.rev !acc
    | Some e ->
      acc := e :: !acc;
      go ()
  in
  go ()
