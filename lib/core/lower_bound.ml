let critical_path g = Dag.critical_path_min g

let work_area g platform =
  let total = ref 0. in
  for i = 0 to Dag.n_tasks g - 1 do
    total := !total +. Dag.w_min g i
  done;
  !total /. float_of_int (Platform.n_procs platform)

let makespan g platform = Float.max (critical_path g) (work_area g platform)

let min_memory g =
  let worst = ref 0. in
  for i = 0 to Dag.n_tasks g - 1 do
    worst := Float.max !worst (Dag.mem_req g i)
  done;
  !worst

let provably_infeasible g platform =
  let cap = ref (Platform.pool_capacity platform 0) in
  for q = 1 to Platform.n_pools platform - 1 do
    cap := Float.max !cap (Platform.pool_capacity platform q)
  done;
  !cap < min_memory g
