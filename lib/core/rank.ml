(* Mean over the pool columns, summed in pool order: exactly
   [(w0 +. w1) /. 2.] for two pools. *)
let node_weight ?durations g =
  let durations =
    match durations with
    | Some d ->
      Est.check_durations ~fn:"Rank.node_weight" g d;
      d
    | None -> Est.default_durations g
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
  Paths.bottom_levels g ~node_weight:(node_weight ?durations g)
    ~edge_weight:(fun e -> e.Dag.comm /. 2.)

let priority_list ?rng ?ranks g =
  let ranks = match ranks with Some r -> r | None -> upward_ranks g in
  let n = Dag.n_tasks g in
  let jitter =
    match rng with
    | Some rng -> Array.init n (fun _ -> Rng.float rng 1.)
    | None -> Array.make n 0.
  in
  let order = Array.init n Fun.id in
  (* Sort by decreasing rank; ties by jitter then id for determinism. *)
  Array.sort
    (fun a b ->
      let c = Float.compare ranks.(b) ranks.(a) in
      if c <> 0 then c
      else begin
        let c = Float.compare jitter.(a) jitter.(b) in
        if c <> 0 then c else compare a b
      end)
    order;
  order
