type task = { id : int; name : string; w_blue : float; w_red : float }
type edge = { eid : int; src : int; dst : int; size : float; comm : float }

(* The graph, stored once as flat arrays and built once at [finalize].
   Edge ids are builder insertion order, and the packed rows of each task
   list their edge ids in ascending order, so a fold over a row visits the
   task's edges in insertion order: every float fold over a row (in/out
   sizes, levels, ESTs) accumulates in one fixed order. *)
type t = {
  names : string array;  (* task attributes, indexed by task id *)
  w_blue : float array;
  w_red : float array;
  in_sz : float array;  (* total input / output file size per task *)
  out_sz : float array;
  e_src : int array;  (* edge attributes, indexed by eid *)
  e_dst : int array;
  e_size : float array;
  e_comm : float array;
  succ_off : int array;  (* length n+1: row [i] is [succ_off.(i) .. succ_off.(i+1) - 1] *)
  succ_eid : int array;  (* packed outgoing edge ids, ascending eid within a row *)
  succ_dst : int array;  (* dst of the edge at the same packed index *)
  pred_off : int array;
  pred_eid : int array;  (* packed incoming edge ids, ascending eid within a row *)
  pred_src : int array;
  topo : int array;  (* smallest-id-first Kahn order *)
  layer_of : int array;  (* topological depth: 0 for sources, 1 + max parent depth *)
  layer_off : int array;  (* length n_layers+1 into [layer_tasks] *)
  layer_tasks : int array;  (* task ids grouped by layer, ascending within a layer *)
}

module Builder = struct
  type dag = t

  let _witness : dag option = None

  (* Growable SoA buffers: the first [ntasks] / [nedges] entries are live.
     [seen] maps the key [(src lsl 31) lor dst] of every accepted edge to its
     eid; task ids stay below [2^31] long before memory runs out. *)
  type t = {
    mutable names : string array;
    mutable w_blue : float array;
    mutable w_red : float array;
    mutable ntasks : int;
    mutable e_src : int array;
    mutable e_dst : int array;
    mutable e_size : float array;
    mutable e_comm : float array;
    mutable nedges : int;
    seen : Int_table.t;
  }

  let create () =
    {
      names = Array.make 16 "";
      w_blue = Array.make 16 0.;
      w_red = Array.make 16 0.;
      ntasks = 0;
      e_src = Array.make 16 0;
      e_dst = Array.make 16 0;
      e_size = Array.make 16 0.;
      e_comm = Array.make 16 0.;
      nedges = 0;
      seen = Int_table.create 16;
    }

  let grown a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  let grown_f (a : float array) = grown a 0.
  let grown_i (a : int array) = grown a 0

  let add_task b ?name ~w_blue ~w_red () =
    Fp.check_finite ~what:"Dag.Builder.add_task: processing time" w_blue;
    Fp.check_finite ~what:"Dag.Builder.add_task: processing time" w_red;
    if w_blue < 0. || w_red < 0. then invalid_arg "Dag.Builder.add_task: negative time";
    let id = b.ntasks in
    if id = Array.length b.names then begin
      b.names <- grown b.names "";
      b.w_blue <- grown_f b.w_blue;
      b.w_red <- grown_f b.w_red
    end;
    b.names.(id) <- (match name with Some n -> n | None -> "t" ^ string_of_int id);
    b.w_blue.(id) <- w_blue;
    b.w_red.(id) <- w_red;
    b.ntasks <- id + 1;
    id

  (* Every check runs before the first write, so a rejected edge leaves the
     builder exactly as it was. *)
  let add_edge b ~src ~dst ~size ~comm =
    if src < 0 || src >= b.ntasks || dst < 0 || dst >= b.ntasks then
      invalid_arg "Dag.Builder.add_edge: dangling endpoint";
    if src = dst then invalid_arg "Dag.Builder.add_edge: self-loop";
    Fp.check_finite ~what:"Dag.Builder.add_edge: file size" size;
    Fp.check_finite ~what:"Dag.Builder.add_edge: transfer time" comm;
    if size < 0. || comm < 0. then invalid_arg "Dag.Builder.add_edge: negative attribute";
    let k = b.nedges in
    if not (Int_table.add b.seen ((src lsl 31) lor dst) k) then
      invalid_arg "Dag.Builder.add_edge: duplicate edge";
    if k = Array.length b.e_src then begin
      b.e_src <- grown_i b.e_src;
      b.e_dst <- grown_i b.e_dst;
      b.e_size <- grown_f b.e_size;
      b.e_comm <- grown_f b.e_comm
    end;
    b.e_src.(k) <- src;
    b.e_dst.(k) <- dst;
    b.e_size.(k) <- size;
    b.e_comm.(k) <- comm;
    b.nedges <- k + 1

  (* Kahn's algorithm over a binary min-heap of task ids: the smallest ready
     id is always taken next, so the order is a function of the graph
     alone. *)
  let topo_sort ~n ~succ_off ~succ_dst ~pred_off =
    let indeg = Array.init n (fun i -> pred_off.(i + 1) - pred_off.(i)) in
    let heap = Array.make n 0 and size = ref 0 in
    let push x =
      let c = ref !size in
      incr size;
      while !c > 0 && heap.((!c - 1) / 2) > x do
        heap.(!c) <- heap.((!c - 1) / 2);
        c := (!c - 1) / 2
      done;
      heap.(!c) <- x
    in
    let pop () =
      let top = heap.(0) in
      decr size;
      let x = heap.(!size) and c = ref 0 and stop = ref false in
      while not !stop do
        let l = (2 * !c) + 1 in
        if l >= !size then stop := true
        else begin
          let m = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
          if heap.(m) < x then begin
            heap.(!c) <- heap.(m);
            c := m
          end
          else stop := true
        end
      done;
      if !size > 0 then heap.(!c) <- x;
      top
    in
    for i = 0 to n - 1 do
      if indeg.(i) = 0 then push i
    done;
    let order = Array.make n 0 in
    let k = ref 0 in
    while !size > 0 do
      let i = pop () in
      order.(!k) <- i;
      incr k;
      for p = succ_off.(i) to succ_off.(i + 1) - 1 do
        let d = succ_dst.(p) in
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then push d
      done
    done;
    if !k <> n then invalid_arg "Dag.Builder.finalize: graph has a cycle";
    order

  (* Two-pass counting sort by endpoint.  Scanning eids in ascending order
     through the row cursors packs each row in ascending eid order. *)
  let finalize b =
    let n = b.ntasks and m = b.nedges in
    let e_src = Array.sub b.e_src 0 m and e_dst = Array.sub b.e_dst 0 m in
    let e_size = Array.sub b.e_size 0 m and e_comm = Array.sub b.e_comm 0 m in
    let succ_off = Array.make (n + 1) 0 and pred_off = Array.make (n + 1) 0 in
    for k = 0 to m - 1 do
      succ_off.(e_src.(k) + 1) <- succ_off.(e_src.(k) + 1) + 1;
      pred_off.(e_dst.(k) + 1) <- pred_off.(e_dst.(k) + 1) + 1
    done;
    for i = 1 to n do
      succ_off.(i) <- succ_off.(i) + succ_off.(i - 1);
      pred_off.(i) <- pred_off.(i) + pred_off.(i - 1)
    done;
    let succ_eid = Array.make m 0 and succ_dst = Array.make m 0 in
    let pred_eid = Array.make m 0 and pred_src = Array.make m 0 in
    let scur = Array.sub succ_off 0 n and pcur = Array.sub pred_off 0 n in
    for k = 0 to m - 1 do
      let s = e_src.(k) and d = e_dst.(k) in
      succ_eid.(scur.(s)) <- k;
      succ_dst.(scur.(s)) <- d;
      scur.(s) <- scur.(s) + 1;
      pred_eid.(pcur.(d)) <- k;
      pred_src.(pcur.(d)) <- s;
      pcur.(d) <- pcur.(d) + 1
    done;
    let topo = topo_sort ~n ~succ_off ~succ_dst ~pred_off in
    (* Left folds over the rows in eid order. *)
    let in_sz = Array.make n 0. and out_sz = Array.make n 0. in
    for i = 0 to n - 1 do
      let acc = ref 0. in
      for k = pred_off.(i) to pred_off.(i + 1) - 1 do
        acc := !acc +. e_size.(pred_eid.(k))
      done;
      in_sz.(i) <- !acc;
      let acc = ref 0. in
      for k = succ_off.(i) to succ_off.(i + 1) - 1 do
        acc := !acc +. e_size.(succ_eid.(k))
      done;
      out_sz.(i) <- !acc
    done;
    let layer_of = Array.make n 0 in
    let n_layers = ref (if n = 0 then 0 else 1) in
    Array.iter
      (fun i ->
        let d = ref 0 in
        for k = pred_off.(i) to pred_off.(i + 1) - 1 do
          let dp = layer_of.(pred_src.(k)) + 1 in
          if dp > !d then d := dp
        done;
        layer_of.(i) <- !d;
        if !d + 1 > !n_layers then n_layers := !d + 1)
      topo;
    let layer_off = Array.make (!n_layers + 1) 0 in
    for i = 0 to n - 1 do
      layer_off.(layer_of.(i) + 1) <- layer_off.(layer_of.(i) + 1) + 1
    done;
    for l = 1 to !n_layers do
      layer_off.(l) <- layer_off.(l) + layer_off.(l - 1)
    done;
    let layer_tasks = Array.make n 0 in
    let lcur = Array.sub layer_off 0 !n_layers in
    for i = 0 to n - 1 do
      let l = layer_of.(i) in
      layer_tasks.(lcur.(l)) <- i;
      lcur.(l) <- lcur.(l) + 1
    done;
    {
      names = Array.sub b.names 0 n;
      w_blue = Array.sub b.w_blue 0 n;
      w_red = Array.sub b.w_red 0 n;
      in_sz;
      out_sz;
      e_src;
      e_dst;
      e_size;
      e_comm;
      succ_off;
      succ_eid;
      succ_dst;
      pred_off;
      pred_eid;
      pred_src;
      topo;
      layer_of;
      layer_off;
      layer_tasks;
    }
end

let n_tasks g = Array.length g.names
let n_edges g = Array.length g.e_src
let name g i = g.names.(i)
let task g i = { id = i; name = g.names.(i); w_blue = g.w_blue.(i); w_red = g.w_red.(i) }

let edge g k =
  { eid = k; src = g.e_src.(k); dst = g.e_dst.(k); size = g.e_size.(k); comm = g.e_comm.(k) }

let tasks g = Array.init (n_tasks g) (task g)
let edges g = Array.init (n_edges g) (edge g)

let find_edge g ~src ~dst =
  if src < 0 || src >= n_tasks g then None
  else begin
    let found = ref None in
    for p = g.succ_off.(src) to g.succ_off.(src + 1) - 1 do
      if g.succ_dst.(p) = dst then found := Some (edge g g.succ_eid.(p))
    done;
    !found
  end

let without off g =
  let acc = ref [] in
  for i = n_tasks g - 1 downto 0 do
    if off.(i) = off.(i + 1) then acc := i :: !acc
  done;
  !acc

let sources g = without g.pred_off g
let sinks g = without g.succ_off g
let in_size g i = g.in_sz.(i)
let out_size g i = g.out_sz.(i)
let mem_req g i = in_size g i +. out_size g i
let total_file_size g =
  let acc = ref 0. in
  for k = 0 to n_edges g - 1 do
    acc := !acc +. g.e_size.(k)
  done;
  !acc

(* Read-only views of the arena.  The [order-stability] lint rule fences raw
   [Array.unsafe_*] outside this file; test_csr checks every row against an
   oracle rebuilt from the eid sequence. *)
module Csr = struct
  let succ_off g = g.succ_off
  let succ_eid g = g.succ_eid
  let succ_dst g = g.succ_dst
  let pred_off g = g.pred_off
  let pred_eid g = g.pred_eid
  let pred_src g = g.pred_src
  let e_src g = g.e_src
  let e_dst g = g.e_dst
  let e_size g = g.e_size
  let e_comm g = g.e_comm
  let w_blue g = g.w_blue
  let w_red g = g.w_red
  let in_sz g = g.in_sz
  let out_sz g = g.out_sz
  let in_degree g i = g.pred_off.(i + 1) - g.pred_off.(i)
  let out_degree g i = g.succ_off.(i + 1) - g.succ_off.(i)

  let max_in_degree g =
    let d = ref 0 in
    for i = 0 to n_tasks g - 1 do
      let di = in_degree g i in
      if di > !d then d := di
    done;
    !d

  let n_layers g = Array.length g.layer_off - 1
  let layer_of g = g.layer_of
  let layer_off g = g.layer_off
  let layer_tasks g = g.layer_tasks
end

let w_min g i = Float.min g.w_blue.(i) g.w_red.(i)
let default_durations g = [| g.w_blue; g.w_red |]

(* The builder's rules for processing times, applied to caller-supplied
   columns: a NaN would silently lose every EFT comparison it enters. *)
let check_durations ~fn g durations =
  let n = n_tasks g in
  if Array.length durations = 0 then invalid_arg (fn ^ ": at least one duration column");
  Array.iter
    (fun col ->
      if Array.length col <> n then invalid_arg (fn ^ ": one duration per task");
      Array.iter
        (fun w ->
          Fp.check_finite ~what:(fn ^ ": duration") w;
          if w < 0. then invalid_arg (fn ^ ": negative duration"))
        col)
    durations

let topological_order g = Array.copy g.topo

let is_topological g order =
  let n = n_tasks g in
  if Array.length order <> n then false
  else begin
    let pos = Array.make n (-1) in
    let ok = ref true in
    Array.iteri
      (fun k i -> if i < 0 || i >= n || pos.(i) >= 0 then ok := false else pos.(i) <- k)
      order;
    let k = ref 0 in
    while !ok && !k < n_edges g do
      if pos.(g.e_src.(!k)) >= pos.(g.e_dst.(!k)) then ok := false;
      incr k
    done;
    !ok
  end

let longest_path g ~node_weight ~edge_weight =
  let n = n_tasks g in
  if n = 0 then 0.
  else begin
    let dist = Array.make n neg_infinity in
    Array.iter
      (fun i ->
        let acc = ref 0. in
        for p = g.pred_off.(i) to g.pred_off.(i + 1) - 1 do
          acc := Float.max !acc (dist.(g.pred_src.(p)) +. edge_weight g.pred_eid.(p))
        done;
        dist.(i) <- !acc +. node_weight i)
      g.topo;
    Array.fold_left Float.max neg_infinity dist
  end

let critical_path_min g = longest_path g ~node_weight:(w_min g) ~edge_weight:(fun _ -> 0.)

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "dag %d %d\n" (n_tasks g) (n_edges g));
  (* The line format is whitespace-separated: keep names parseable. *)
  let safe_name n = String.map (fun c -> if c = ' ' || c = '\t' then '_' else c) n in
  for i = 0 to n_tasks g - 1 do
    Buffer.add_string buf
      (Printf.sprintf "task %d %s %.17g %.17g\n" i (safe_name g.names.(i)) g.w_blue.(i) g.w_red.(i))
  done;
  for k = 0 to n_edges g - 1 do
    Buffer.add_string buf
      (Printf.sprintf "edge %d %d %.17g %.17g\n" g.e_src.(k) g.e_dst.(k) g.e_size.(k) g.e_comm.(k))
  done;
  Buffer.contents buf

let of_string s =
  let fail fmt = Printf.ksprintf invalid_arg ("Dag.of_string: " ^^ fmt) in
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> fail "empty input"
  | header :: rest ->
    let n, m =
      match String.split_on_char ' ' header with
      | [ "dag"; n; m ] -> (
        match (int_of_string_opt n, int_of_string_opt m) with
        | Some n, Some m -> (n, m)
        | _ -> fail "bad header %S" header)
      | _ -> fail "bad header %S" header
    in
    let b = Builder.create () in
    let tasks_seen = ref 0 and edges_seen = ref 0 in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | "task" :: id :: name :: wb :: wr :: [] -> (
          match (int_of_string_opt id, float_of_string_opt wb, float_of_string_opt wr) with
          | Some id, Some wb, Some wr ->
            if id <> !tasks_seen then fail "task ids must be dense and in order";
            ignore (Builder.add_task b ~name ~w_blue:wb ~w_red:wr ());
            incr tasks_seen
          | _ -> fail "bad task line %S" line)
        | "edge" :: src :: dst :: size :: comm :: [] -> (
          match
            ( int_of_string_opt src,
              int_of_string_opt dst,
              float_of_string_opt size,
              float_of_string_opt comm )
          with
          | Some src, Some dst, Some size, Some comm ->
            Builder.add_edge b ~src ~dst ~size ~comm;
            incr edges_seen
          | _ -> fail "bad edge line %S" line)
        | _ -> fail "unknown line %S" line)
      rest;
    if !tasks_seen <> n then fail "expected %d tasks, got %d" n !tasks_seen;
    if !edges_seen <> m then fail "expected %d edges, got %d" m !edges_seen;
    Builder.finalize b

let to_dot g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph dag {\n  rankdir=TB;\n  node [shape=box];\n";
  for i = 0 to n_tasks g - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"%s\\nWb=%g Wr=%g\"];\n" i g.names.(i) g.w_blue.(i)
         g.w_red.(i))
  done;
  for k = 0 to n_edges g - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  n%d -> n%d [label=\"F=%g C=%g\"];\n" g.e_src.(k) g.e_dst.(k)
         g.e_size.(k) g.e_comm.(k))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_stats ppf g =
  let n = n_tasks g and m = n_edges g in
  let max_deg = ref 0 in
  for i = 0 to n - 1 do
    max_deg := max !max_deg (Csr.out_degree g i)
  done;
  Format.fprintf ppf "tasks=%d edges=%d sources=%d sinks=%d max-out-degree=%d cp(min-w)=%g" n m
    (List.length (sources g))
    (List.length (sinks g))
    !max_deg (critical_path_min g)
