(* Mean over the pool columns, summed in pool order: exactly
   [(w0 +. w1) /. 2.] for two pools. *)
let node_weight ?durations g =
  let durations =
    match durations with
    | Some d ->
      Dag.check_durations ~fn:"Rank.node_weight" g d;
      d
    | None -> Dag.default_durations g
  in
  let k = Array.length durations in
  let kf = float_of_int k in
  fun i ->
    let s = ref durations.(0).(i) in
    for q = 1 to k - 1 do
      s := !s +. durations.(q).(i)
    done;
    !s /. kf

let upward_ranks ?durations g =
  let comm = Dag.Csr.e_comm g in
  Paths.bottom_levels g ~node_weight:(node_weight ?durations g)
    ~edge_weight:(fun k -> comm.(k) /. 2.)

(* Decreasing rank, ties by jitter then id: two stable sorts from ascending
   ids, by jitter and then by negated rank (negation reverses the order of
   every non-NaN pair and keeps ties tied).  The order is total, so this
   is the permutation any correct sort by (rank desc, jitter, id) gives. *)
let priority_list ?rng ?ranks g =
  let ranks = match ranks with Some r -> r | None -> upward_ranks g in
  let n = Dag.n_tasks g in
  let order = Array.init n Fun.id in
  let keys = Array.create_float n in
  let tmp_keys = Array.create_float n and tmp_vals = Array.make n 0 in
  (match rng with
  | Some rng ->
    for i = 0 to n - 1 do
      keys.(i) <- Rng.float rng 1.
    done;
    Radix.sort keys order ~tmp_keys ~tmp_vals n
  | None -> ());
  for k = 0 to n - 1 do
    keys.(k) <- -.ranks.(order.(k))
  done;
  Radix.sort keys order ~tmp_keys ~tmp_vals n;
  order
