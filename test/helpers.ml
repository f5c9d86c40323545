(* Shared test helpers. *)

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* [true] when [sub] occurs in [s]. *)
let contains sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* Deterministic small random DAG from an integer seed (shrinks well). *)
let dag_of_seed ?(size = 12) seed =
  let params = { Daggen.small_rand_params with Daggen.size } in
  Daggen.generate (Rng.create seed) params

(* One-call DAG construction, the shared path for hand-built unit fixtures
   and fuzz-corpus replays: tasks as (name, w_blue, w_red) in id order,
   edges as (src, dst, size, comm). *)
let build_dag ~tasks ~edges =
  let b = Dag.Builder.create () in
  List.iter
    (fun (name, w_blue, w_red) -> ignore (Dag.Builder.add_task b ~name ~w_blue ~w_red ()))
    tasks;
  List.iter (fun (src, dst, size, comm) -> Dag.Builder.add_edge b ~src ~dst ~size ~comm) edges;
  Dag.Builder.finalize b

(* One producer (task 0) broadcasting an identical (size, comm) file to [d]
   consumers (tasks 1..d). *)
let star ?(size = 2.) ?(comm = 3.) d =
  build_dag
    ~tasks:(("src", 1., 1.) :: List.init d (fun k -> (Printf.sprintf "c%d" (k + 1), 1., 1.)))
    ~edges:(List.init d (fun k -> (0, k + 1, size, comm)))

let seed_arb = QCheck.int_range 0 10_000

(* Child / parent ids of a task, read off its CSR rows (eid order). *)
let row off ids i = List.init (off.(i + 1) - off.(i)) (fun p -> ids.(off.(i) + p))
let children g i = row (Dag.Csr.succ_off g) (Dag.Csr.succ_dst g) i
let parents g i = row (Dag.Csr.pred_off g) (Dag.Csr.pred_src g) i

(* A platform with two processors per memory and the given symmetric bound. *)
let platform ?(p_blue = 2) ?(p_red = 2) bound =
  Platform.make ~p_blue ~p_red ~m_blue:bound ~m_red:bound

let validate_ok g p s =
  match Validator.validate g p s with
  | Ok r -> r
  | Error errs -> Alcotest.failf "invalid schedule:\n%s" (String.concat "\n" errs)

(* Hex-float rendering of every schedule array (starts, procs, comm_starts):
   any change to one bit of any start, processor or transfer time changes
   the text, so digests of it pin schedules bit for bit. *)
let add_schedule_text b (s : Schedule.t) =
  Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h;" x)) s.Schedule.starts;
  Array.iter (fun p -> Buffer.add_string b (Printf.sprintf "%d;" p)) s.Schedule.procs;
  Array.iter
    (fun c ->
      match c with
      | None -> Buffer.add_string b "_;"
      | Some x -> Buffer.add_string b (Printf.sprintf "%h;" x))
    s.Schedule.comm_starts
