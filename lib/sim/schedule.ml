type t = {
  starts : float array;
  procs : int array;
  comm_starts : float option array;
}

let create g =
  {
    starts = Array.make (Dag.n_tasks g) 0.;
    procs = Array.make (Dag.n_tasks g) 0;
    comm_starts = Array.make (Dag.n_edges g) None;
  }

let memory_of platform s i = Platform.memory_of_proc platform s.procs.(i)
let duration g platform s i = Platform.w g i (memory_of platform s i)
let finish g platform s i = s.starts.(i) +. duration g platform s i

let is_cut platform s (e : Dag.edge) =
  memory_of platform s e.Dag.src <> memory_of platform s e.Dag.dst

let comm_duration platform s (e : Dag.edge) = if is_cut platform s e then e.Dag.comm else 0.

let comm_finish g platform s (e : Dag.edge) =
  if is_cut platform s e then begin
    match s.comm_starts.(e.Dag.eid) with
    | Some tau -> tau +. e.Dag.comm
    | None -> invalid_arg "Schedule.comm_finish: cut edge without transfer"
  end
  else finish g platform s e.Dag.src

let makespan g platform s =
  let n = Dag.n_tasks g in
  let m = ref 0. in
  for i = 0 to n - 1 do
    m := Float.max !m (finish g platform s i)
  done;
  !m

(* Flat per-task finish times in one pass over the SoA cost arrays: the same
   [starts.(i) +. w] addition as [finish], so the values are bit-identical. *)
let finishes g platform s =
  let n = Dag.n_tasks g in
  let wb = Dag.Csr.w_blue g and wr = Dag.Csr.w_red g in
  let fin = Array.make (max 1 n) 0. in
  for i = 0 to n - 1 do
    let w =
      match Platform.memory_of_proc platform s.procs.(i) with
      | Platform.Blue -> wb.(i)
      | Platform.Red -> wr.(i)
    in
    fin.(i) <- s.starts.(i) +. w
  done;
  fin

(* Order all tasks by (start, finish, id) with two stable sorts from
   ascending ids — by finish, then by start — and group them by processor
   with one stable counting-sort pass (O(n + p)).  The id tie-break makes
   the order total, which reproduces [tasks_of_proc] exactly: that path
   stable-sorts ascending task ids by (start, finish), so fully-tied tasks
   stay in ascending-id order there too. *)
let tasks_by_proc g platform s =
  let n = Dag.n_tasks g in
  let nprocs = Platform.n_procs platform in
  let off = Array.make (nprocs + 1) 0 in
  for i = 0 to n - 1 do
    let p = s.procs.(i) in
    if p < 0 || p >= nprocs then
      invalid_arg "Schedule.tasks_by_proc: processor index out of range";
    off.(p + 1) <- off.(p + 1) + 1
  done;
  for p = 1 to nprocs do
    off.(p) <- off.(p) + off.(p - 1)
  done;
  let by_time = Array.init n Fun.id in
  let keys = finishes g platform s in
  let tmp_keys = Array.create_float n and tmp_vals = Array.make n 0 in
  Radix.sort keys by_time ~tmp_keys ~tmp_vals n;
  for k = 0 to n - 1 do
    keys.(k) <- s.starts.(by_time.(k))
  done;
  Radix.sort keys by_time ~tmp_keys ~tmp_vals n;
  let order = Array.make (max 1 n) 0 in
  let next = Array.copy off in
  for k = 0 to n - 1 do
    let i = by_time.(k) in
    let p = s.procs.(i) in
    order.(next.(p)) <- i;
    next.(p) <- next.(p) + 1
  done;
  (off, order)

let tasks_of_proc g platform s p =
  let on_p = ref [] in
  for i = Dag.n_tasks g - 1 downto 0 do
    if s.procs.(i) = p then on_p := i :: !on_p
  done;
  (* Sort by (start, finish) so that a zero-duration task sharing its start
     instant with a longer task is ordered first (it legally precedes it). *)
  List.sort
    (fun a b ->
      let c = Float.compare s.starts.(a) s.starts.(b) in
      if c <> 0 then c else Float.compare (finish g platform s a) (finish g platform s b))
    !on_p
