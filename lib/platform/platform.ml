type memory = Blue | Red

let other = function Blue -> Red | Red -> Blue
let memory_to_string = function Blue -> "blue" | Red -> "red"
let memories = [ Blue; Red ]

type pool = { procs : int; capacity : float }

(* [first.(q)] is the first processor of pool [q]; [first.(n_pools)] is the
   processor count. *)
type t = { pools : pool array; first : int array }

(* Whole-list passes: every processor count, then NaN, then sign.  Which
   error a bad platform reports is part of the contract (tests pin the
   messages), so it must not depend on which pool is bad first. *)
let check ~fn pools =
  List.iter (fun p -> if p.procs <= 0 then invalid_arg (fn ^ ": processor counts must be positive")) pools;
  (* +infinity is a legal "unbounded" capacity, NaN never is. *)
  List.iter (fun p -> Fp.check_not_nan ~what:(fn ^ ": memory capacity") p.capacity) pools;
  List.iter (fun p -> if p.capacity < 0. then invalid_arg (fn ^ ": negative memory capacity")) pools

let build pools =
  let pools = Array.of_list pools in
  let first = Array.make (Array.length pools + 1) 0 in
  Array.iteri (fun q p -> first.(q + 1) <- first.(q) + p.procs) pools;
  { pools; first }

let of_pools pools =
  (match pools with [] -> invalid_arg "Platform.of_pools: at least one pool required" | _ :: _ -> ());
  check ~fn:"Platform.of_pools" pools;
  build pools

let make ~p_blue ~p_red ~m_blue ~m_red =
  let pools = [ { procs = p_blue; capacity = m_blue }; { procs = p_red; capacity = m_red } ] in
  check ~fn:"Platform.make" pools;
  build pools

let unbounded ~p_blue ~p_red = make ~p_blue ~p_red ~m_blue:infinity ~m_red:infinity
let n_pools p = Array.length p.pools
let n_procs p = p.first.(n_pools p)
let pool_capacity p q = p.pools.(q).capacity
let procs_of_pool p q = List.init p.pools.(q).procs (fun k -> p.first.(q) + k)

let pool_of_proc p proc =
  if proc < 0 || proc >= n_procs p then invalid_arg "Platform.pool_of_proc: out of range";
  let q = ref 0 in
  while proc >= p.first.(!q + 1) do
    incr q
  done;
  !q

let with_capacities p caps =
  if List.length caps <> n_pools p then invalid_arg "Platform.with_capacities: arity mismatch";
  of_pools (List.map2 (fun pool capacity -> { pool with capacity }) (Array.to_list p.pools) caps)

(* --- the dual-memory views: pools 0 and 1 of a 2-pool platform --- *)

let dual ~fn p =
  if n_pools p <> 2 then
    invalid_arg (Printf.sprintf "%s: dual-memory view of a %d-pool platform" fn (n_pools p))

let index = function Blue -> 0 | Red -> 1

let with_bounds p ~m_blue ~m_red =
  dual ~fn:"Platform.with_bounds" p;
  make ~p_blue:p.pools.(0).procs ~p_red:p.pools.(1).procs ~m_blue ~m_red

let capacity p mu =
  dual ~fn:"Platform.capacity" p;
  pool_capacity p (index mu)

let n_procs_of p mu =
  dual ~fn:"Platform.n_procs_of" p;
  p.pools.(index mu).procs

let memory_of_proc p k =
  dual ~fn:"Platform.memory_of_proc" p;
  if k < 0 || k >= n_procs p then invalid_arg "Platform.memory_of_proc: out of range";
  if k < p.first.(1) then Blue else Red

let procs_of p mu =
  dual ~fn:"Platform.procs_of" p;
  procs_of_pool p (index mu)

let first_proc p mu =
  dual ~fn:"Platform.first_proc" p;
  p.first.(index mu)

let w g i = function
  | Blue -> (Dag.Csr.w_blue g).(i)
  | Red -> (Dag.Csr.w_red g).(i)
