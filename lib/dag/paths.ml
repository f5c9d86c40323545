(* Longest-path levels over the CSR rows: one pass of the cached topological
   order, each task's packed adjacency row walked in eid order, so the
   [Float.max] folds accumulate in one fixed order. *)

let bottom_levels g ~node_weight ~edge_weight =
  let n = Dag.n_tasks g in
  let bl = Array.make n 0. in
  let topo = Dag.topological_order g in
  let off = Dag.Csr.succ_off g and eid = Dag.Csr.succ_eid g in
  let dst = Dag.Csr.succ_dst g in
  for k = n - 1 downto 0 do
    let i = topo.(k) in
    let acc = ref 0. in
    for p = off.(i) to off.(i + 1) - 1 do
      acc := Float.max !acc (edge_weight eid.(p) +. bl.(dst.(p)))
    done;
    bl.(i) <- node_weight i +. !acc
  done;
  bl

let top_levels g ~node_weight ~edge_weight =
  let n = Dag.n_tasks g in
  let tl = Array.make n 0. in
  let topo = Dag.topological_order g in
  let off = Dag.Csr.pred_off g and eid = Dag.Csr.pred_eid g in
  let src = Dag.Csr.pred_src g in
  Array.iter
    (fun i ->
      let acc = ref 0. in
      for p = off.(i) to off.(i + 1) - 1 do
        let j = src.(p) in
        acc := Float.max !acc (tl.(j) +. node_weight j +. edge_weight eid.(p))
      done;
      tl.(i) <- !acc)
    topo;
  tl

let critical_parent g ~bottom i =
  let off = Dag.Csr.succ_off g and dst = Dag.Csr.succ_dst g in
  let best = ref None in
  for p = off.(i) to off.(i + 1) - 1 do
    let c = dst.(p) in
    match !best with
    | None -> best := Some c
    | Some b -> if bottom.(c) > bottom.(b) then best := Some c
  done;
  !best
