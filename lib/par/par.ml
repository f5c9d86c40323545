(* Domain pool with a bounded queue, deterministic combinators and
   structured error propagation.  See par.mli for the contract. *)

let default_jobs () = Domain.recommended_domain_count ()
let now () = Unix.gettimeofday ()

exception Cancelled

type 'a state =
  | Pending
  | Running
  | Cancelled_before_start
  | Value of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  f_mutex : Mutex.t;  (* the owning pool's mutex *)
  f_done : Condition.t;  (* the owning pool's completion condition *)
  f_on_cancel : unit -> unit;  (* counter hook; called with [f_mutex] held *)
  mutable st : 'a state;
}

type task = Task : 'a future * (unit -> 'a) -> task

type t = {
  id : int;
  n_jobs : int;
  capacity : int;
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  done_cond : Condition.t;
  ring : task option array;
  mutable head : int;
  mutable len : int;
  mutable stopping : bool;
  mutable joined : bool;
  mutable workers : unit Domain.t list;
  (* counters, all guarded by [mutex] *)
  mutable c_run : int;
  mutable c_failed : int;
  mutable c_cancelled : int;
  mutable c_batches : int;
  mutable c_max_queue : int;
  mutable c_submit_wait : float;
  mutable c_worker_wait : float;
  mutable c_busy : float;
}

let jobs t = t.n_jobs

(* Which pool (if any) the current domain is a worker of: nested combinator
   calls from a task must run inline or the bounded queue can deadlock. *)
let pool_ids = Atomic.make 1
let current_pool : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let in_this_pool t = Domain.DLS.get current_pool = t.id

(* ------------------------------------------------------------ worker loop *)

let exec t (Task (fut, thunk)) =
  Mutex.lock t.mutex;
  let runnable = match fut.st with
    | Pending ->
      fut.st <- Running;
      true
    | Cancelled_before_start -> false
    | Running | Value _ | Failed _ -> false
  in
  Mutex.unlock t.mutex;
  if runnable then begin
    let t0 = now () in
    let outcome =
      try Ok (thunk ()) with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    let dt = now () -. t0 in
    Mutex.lock t.mutex;
    (match outcome with
    | Ok v -> fut.st <- Value v
    | Error (e, bt) ->
      fut.st <- Failed (e, bt);
      t.c_failed <- t.c_failed + 1);
    t.c_run <- t.c_run + 1;
    t.c_busy <- t.c_busy +. dt;
    Condition.broadcast t.done_cond;
    Mutex.unlock t.mutex
  end

let worker t () =
  Domain.DLS.set current_pool t.id;
  let rec loop () =
    Mutex.lock t.mutex;
    let t0 = now () in
    while t.len = 0 && not t.stopping do
      Condition.wait t.not_empty t.mutex
    done;
    t.c_worker_wait <- t.c_worker_wait +. (now () -. t0);
    if t.len = 0 then Mutex.unlock t.mutex (* stopping and drained: exit *)
    else begin
      let task = Option.get t.ring.(t.head) in
      t.ring.(t.head) <- None;
      t.head <- (t.head + 1) mod t.capacity;
      t.len <- t.len - 1;
      Condition.signal t.not_full;
      Mutex.unlock t.mutex;
      exec t task;
      loop ()
    end
  in
  loop ()

(* -------------------------------------------------------------- lifecycle *)

let create ?queue_capacity ~jobs () =
  if jobs < 1 then invalid_arg "Par.create: jobs must be >= 1";
  let capacity =
    match queue_capacity with
    | None -> max 64 (4 * jobs)
    | Some c -> if c < 1 then invalid_arg "Par.create: queue_capacity must be >= 1" else c
  in
  let t =
    {
      id = Atomic.fetch_and_add pool_ids 1;
      n_jobs = jobs;
      capacity;
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      done_cond = Condition.create ();
      ring = Array.make capacity None;
      head = 0;
      len = 0;
      stopping = false;
      joined = false;
      workers = [];
      c_run = 0;
      c_failed = 0;
      c_cancelled = 0;
      c_batches = 0;
      c_max_queue = 0;
      c_submit_wait = 0.;
      c_worker_wait = 0.;
      c_busy = 0.;
    }
  in
  if jobs > 1 then t.workers <- List.init jobs (fun _ -> Domain.spawn (worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  if t.joined then Mutex.unlock t.mutex
  else begin
    t.stopping <- true;
    t.joined <- true;
    let workers = t.workers in
    t.workers <- [];
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full;
    Mutex.unlock t.mutex;
    List.iter Domain.join workers
  end

let with_pool ?queue_capacity ~jobs f =
  let t = create ?queue_capacity ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ------------------------------------------------------------- submission *)

(* Serial path (jobs = 1 or nested call from a worker): run now, on the
   caller, and hand back an already-resolved future. *)
let run_inline t thunk =
  let t0 = now () in
  let outcome = try Ok (thunk ()) with e -> Error (e, Printexc.get_raw_backtrace ()) in
  let dt = now () -. t0 in
  Mutex.lock t.mutex;
  let st =
    match outcome with
    | Ok v -> Value v
    | Error (e, bt) ->
      t.c_failed <- t.c_failed + 1;
      Failed (e, bt)
  in
  t.c_run <- t.c_run + 1;
  t.c_busy <- t.c_busy +. dt;
  Mutex.unlock t.mutex;
  { f_mutex = t.mutex; f_done = t.done_cond; f_on_cancel = ignore; st }

let submit t thunk =
  if t.n_jobs <= 1 || in_this_pool t then begin
    if t.joined then invalid_arg "Par.submit: pool is shut down";
    run_inline t thunk
  end
  else begin
    let fut =
      {
        f_mutex = t.mutex;
        f_done = t.done_cond;
        f_on_cancel = (fun () -> t.c_cancelled <- t.c_cancelled + 1);
        st = Pending;
      }
    in
    Mutex.lock t.mutex;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      invalid_arg "Par.submit: pool is shut down"
    end;
    let t0 = now () in
    while t.len = t.capacity && not t.stopping do
      Condition.wait t.not_full t.mutex
    done;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      invalid_arg "Par.submit: pool is shut down"
    end;
    t.c_submit_wait <- t.c_submit_wait +. (now () -. t0);
    t.ring.((t.head + t.len) mod t.capacity) <- Some (Task (fut, thunk));
    t.len <- t.len + 1;
    if t.len > t.c_max_queue then t.c_max_queue <- t.len;
    Condition.signal t.not_empty;
    Mutex.unlock t.mutex;
    fut
  end

let await fut =
  Mutex.lock fut.f_mutex;
  while (match fut.st with Pending | Running -> true | _ -> false) do
    Condition.wait fut.f_done fut.f_mutex
  done;
  let st = fut.st in
  Mutex.unlock fut.f_mutex;
  match st with
  | Value v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Cancelled_before_start -> raise Cancelled
  | Pending | Running -> assert false

let poll fut =
  Mutex.lock fut.f_mutex;
  let resolved = match fut.st with Pending | Running -> false | _ -> true in
  Mutex.unlock fut.f_mutex;
  resolved

let cancel fut =
  Mutex.lock fut.f_mutex;
  let cancelled =
    match fut.st with
    | Pending ->
      fut.st <- Cancelled_before_start;
      fut.f_on_cancel ();
      true
    | _ -> false
  in
  if cancelled then Condition.broadcast fut.f_done;
  Mutex.unlock fut.f_mutex;
  cancelled

(* ------------------------------------------------------------ combinators *)

let chunk_list n xs =
  (* consecutive runs of [n], preserving order *)
  let rec take k acc = function
    | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | xs ->
      let c, rest = take n [] xs in
      go (c :: acc) rest
  in
  go [] xs

let note_batch t =
  Mutex.lock t.mutex;
  t.c_batches <- t.c_batches + 1;
  Mutex.unlock t.mutex

let parallel_map ?(chunk = 1) t ~f xs =
  if chunk < 1 then invalid_arg "Par.parallel_map: chunk must be >= 1";
  note_batch t;
  if t.n_jobs <= 1 || in_this_pool t then List.map f xs
  else begin
    let futures =
      List.map (fun c -> submit t (fun () -> List.map f c)) (chunk_list chunk xs)
    in
    (* Await in submission order so both results and the error (the
       lowest-index failing chunk) are deterministic. *)
    let first_error = ref None in
    let collected =
      List.map
        (fun fut ->
          match !first_error with
          | Some _ ->
            ignore (cancel fut);
            []
          | None -> (
            try await fut
            with e ->
              first_error := Some (e, Printexc.get_raw_backtrace ());
              []))
        futures
    in
    match !first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> List.concat collected
  end

let parallel_iter ?chunk t ~f xs =
  ignore (parallel_map ?chunk t ~f:(fun x -> f x) xs : unit list)

let map_seeded ?chunk t ~rng ~f xs =
  (* Split one stream per element sequentially, before any dispatch: the
     k-th element always sees the k-th stream, for every jobs count. *)
  let seeded = List.rev (List.fold_left (fun acc x -> (Rng.split rng, x) :: acc) [] xs) in
  parallel_map ?chunk t ~f:(fun (r, x) -> f r x) seeded

(* --------------------------------------------------------------- counters *)

type counters = {
  tasks_run : int;
  tasks_failed : int;
  tasks_cancelled : int;
  batches : int;
  max_queue : int;
  submit_wait_s : float;
  worker_wait_s : float;
  worker_busy_s : float;
}

let counters t =
  Mutex.lock t.mutex;
  let c =
    {
      tasks_run = t.c_run;
      tasks_failed = t.c_failed;
      tasks_cancelled = t.c_cancelled;
      batches = t.c_batches;
      max_queue = t.c_max_queue;
      submit_wait_s = t.c_submit_wait;
      worker_wait_s = t.c_worker_wait;
      worker_busy_s = t.c_busy;
    }
  in
  Mutex.unlock t.mutex;
  c

let reset_counters t =
  Mutex.lock t.mutex;
  t.c_run <- 0;
  t.c_failed <- 0;
  t.c_cancelled <- 0;
  t.c_batches <- 0;
  t.c_max_queue <- 0;
  t.c_submit_wait <- 0.;
  t.c_worker_wait <- 0.;
  t.c_busy <- 0.;
  Mutex.unlock t.mutex
