(* Layer measurement from outside the program.  Every call the benchmark
   makes into a layer goes through [timed], which always accumulates the
   layer's call count, wall time, allocated words and units of work (the
   per-layer metrics are ratios of these), and, on a traced run, also keeps
   a span: name, start, end, enclosing span and op/request id.  Spans stay
   in memory until [write_chrome] turns them into Chrome trace-event JSON.

   A tracer is single-threaded state: never call it from inside a pool
   closure. *)

type layer = {
  name : string;
  mutable calls : int;
  mutable time_s : float;
  mutable alloc_words : float;
  mutable work : int;
}

type span = {
  index : int;
  sname : string;
  id : int;  (** op or request id; [-1] when the span has none *)
  start : float;
  stop : float;
  parent : int;  (** index of the enclosing span; [-1] at top level *)
  async : bool;  (** overlaps its siblings (requests in flight together) *)
}

type t = {
  traced : bool;
  origin : float;
  mutable layers : layer list;  (* newest first; a dozen entries at most *)
  mutable spans : span list;  (* completed, newest first *)
  mutable stack : int list;  (* indices of the open spans, innermost first *)
  mutable next : int;
}

let create ~traced = { traced; origin = Clock.now (); layers = []; spans = []; stack = []; next = 0 }
let traced t = t.traced

let layer t name =
  match List.find_opt (fun l -> String.equal l.name name) t.layers with
  | Some l -> l
  | None ->
    let l = { name; calls = 0; time_s = 0.; alloc_words = 0.; work = 0 } in
    t.layers <- l :: t.layers;
    l

let find t name = List.find_opt (fun l -> String.equal l.name name) t.layers

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let parent t = match t.stack with p :: _ -> p | [] -> -1

(* [timed t name f] runs [f ()] as one call of layer [name] and returns its
   result with the call's wall time in seconds.  [work] is the number of
   tasks the call processed (the denominator of the per-task metrics). *)
let timed t ?(id = -1) ?(work = 0) name f =
  let index = t.next in
  let parent = parent t in
  if t.traced then (
    t.next <- index + 1;
    t.stack <- index :: t.stack);
  let a0 = allocated () in
  let t0 = Clock.now () in
  let finish () =
    let t1 = Clock.now () in
    let l = layer t name in
    l.calls <- l.calls + 1;
    l.time_s <- l.time_s +. (t1 -. t0);
    l.alloc_words <- l.alloc_words +. (allocated () -. a0);
    l.work <- l.work + work;
    if t.traced then (
      t.stack <- List.tl t.stack;
      t.spans <- { index; sname = name; id; start = t0; stop = t1; parent; async = false } :: t.spans);
    t1 -. t0
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let span t ?id ?work name f = fst (timed t ?id ?work name f)

(* Work of a call whose size is only known from its result (a generator). *)
let add_work t name n =
  let l = layer t name in
  l.work <- l.work + n

(* Ratios of a layer's accumulators; [0.] for a layer never called. *)
let ms_per_call t name =
  match find t name with Some l when l.calls > 0 -> l.time_s *. 1e3 /. float_of_int l.calls | _ -> 0.

let per_task t name =
  match find t name with
  | Some l when l.work > 0 ->
    let w = float_of_int l.work in
    [ (name ^ ".ns_per_task", l.time_s *. 1e9 /. w); (name ^ ".alloc_words_per_task", l.alloc_words /. w) ]
  | _ -> []

(* A span measured elsewhere, e.g. a request from its due time to its
   response: counted in layer [name] and kept, on a traced run, as an async
   child of the innermost open span. *)
let record t ~id name ~start ~stop =
  let l = layer t name in
  l.calls <- l.calls + 1;
  l.time_s <- l.time_s +. (stop -. start);
  if t.traced then (
    let index = t.next in
    t.next <- index + 1;
    t.spans <- { index; sname = name; id; start; stop; parent = parent t; async = true } :: t.spans)

let spans t = List.sort (fun a b -> Int.compare a.index b.index) t.spans

(* Self time of each span: its duration minus the part of it covered by the
   union of its children's intervals (async children may overlap). *)
let self_times spans =
  let n = List.fold_left (fun m s -> max m (s.index + 1)) 0 spans in
  let children = Array.make n [] in
  List.iter (fun s -> if s.parent >= 0 then children.(s.parent) <- s :: children.(s.parent)) spans;
  List.map
    (fun s ->
      let kids = List.sort (fun a b -> Float.compare a.start b.start) children.(s.index) in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) k ->
            let lo = Float.max reach (Float.max k.start s.start) in
            let hi = Float.min k.stop s.stop in
            if hi > lo then (acc +. (hi -. lo), hi) else (acc, Float.max reach lo))
          (0., s.start) kids
      in
      (s, s.stop -. s.start -. covered))
    spans

(* Per span name, in order of first appearance: calls, total and self
   seconds. *)
let table spans =
  let rows =
    List.fold_left
      (fun rows (s, self) ->
        match List.assoc_opt s.sname rows with
        | Some (calls, total, self') ->
          (s.sname, (calls + 1, total +. (s.stop -. s.start), self' +. self))
          :: List.remove_assoc s.sname rows
        | None -> (s.sname, (1, s.stop -. s.start, self)) :: rows)
      [] (self_times spans)
  in
  let first name = (List.find (fun s -> String.equal s.sname name) spans).index in
  List.sort (fun (a, _) (b, _) -> Int.compare (first a) (first b)) rows
  |> List.map (fun (name, (calls, total, self)) -> (name, calls, total, self))

let write_chrome t path =
  let b = Buffer.create 65536 in
  let us x = (x -. t.origin) *. 1e6 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun k s ->
      if k > 0 then Buffer.add_char b ',';
      let args = Printf.sprintf "{\"span\":%d,\"parent\":%d,\"id\":%d}" s.index s.parent s.id in
      let name = Json.escape s.sname in
      if s.async then
        Printf.bprintf b
          "\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\",\"id\":%d,\"ts\":%.3f,\"pid\":1,\"tid\":1,\"args\":%s},\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\",\"id\":%d,\"ts\":%.3f,\"pid\":1,\"tid\":1}"
          name s.index (us s.start) args name s.index (us s.stop)
      else
        Printf.bprintf b
          "\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":%s}"
          name (us s.start) (us s.stop -. us s.start) args)
    (spans t);
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc b)
