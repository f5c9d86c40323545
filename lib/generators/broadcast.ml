let relay_prefix = "bcast_"

let linearize g =
  let b = Dag.Builder.create () in
  let n = Dag.n_tasks g in
  let w_blue = Dag.Csr.w_blue g and w_red = Dag.Csr.w_red g in
  (* Original tasks keep their ids because they are added first, in order. *)
  for i = 0 to n - 1 do
    ignore (Dag.Builder.add_task b ~name:(Dag.name g i) ~w_blue:w_blue.(i) ~w_red:w_red.(i) ())
  done;
  let off = Dag.Csr.succ_off g and eid = Dag.Csr.succ_eid g and dst = Dag.Csr.succ_dst g in
  let e_size = Dag.Csr.e_size g and e_comm = Dag.Csr.e_comm g in
  let relay_name i k = relay_prefix ^ Dag.name g i ^ "_" ^ string_of_int k in
  for i = 0 to n - 1 do
    let d = off.(i + 1) - off.(i) in
    if d <= 1 then
      for p = off.(i) to off.(i + 1) - 1 do
        Dag.Builder.add_edge b ~src:i ~dst:dst.(p) ~size:e_size.(eid.(p)) ~comm:e_comm.(eid.(p))
      done
    else begin
      let size = e_size.(eid.(off.(i))) and comm = e_comm.(eid.(off.(i))) in
      for p = off.(i) + 1 to off.(i + 1) - 1 do
        if not (Float.equal e_size.(eid.(p)) size && Float.equal e_comm.(eid.(p)) comm) then
          invalid_arg
            ("Broadcast.linearize: task " ^ Dag.name g i ^ " has heterogeneous outgoing edges")
      done;
      let consumers = Array.to_list (Array.sub dst off.(i) d) in
      (* Producer -> relay_1 -> relay_2 -> ... ; relay_k also feeds consumer
         k; the last relay feeds the final two consumers. *)
      let rec pipeline src k = function
        | [] -> ()
        | [ c ] -> Dag.Builder.add_edge b ~src ~dst:c ~size ~comm
        | [ c1; c2 ] ->
          Dag.Builder.add_edge b ~src ~dst:c1 ~size ~comm;
          Dag.Builder.add_edge b ~src ~dst:c2 ~size ~comm
        | c :: rest ->
          Dag.Builder.add_edge b ~src ~dst:c ~size ~comm;
          let relay =
            Dag.Builder.add_task b ~name:(relay_name i k) ~w_blue:0. ~w_red:0. ()
          in
          Dag.Builder.add_edge b ~src ~dst:relay ~size ~comm;
          pipeline relay (k + 1) rest
      in
      (* First hop: producer feeds the first relay (or directly its consumers
         when d is small). *)
      (match consumers with
      | [] -> ()
      | [ c ] -> Dag.Builder.add_edge b ~src:i ~dst:c ~size ~comm
      | consumers ->
        let relay0 =
          Dag.Builder.add_task b ~name:(relay_name i 0) ~w_blue:0. ~w_red:0. ()
        in
        Dag.Builder.add_edge b ~src:i ~dst:relay0 ~size ~comm;
        pipeline relay0 1 consumers)
    end
  done;
  Dag.Builder.finalize b

let is_fictitious g i =
  let name = Dag.name g i in
  String.length name >= String.length relay_prefix
  && String.sub name 0 (String.length relay_prefix) = relay_prefix

let n_fictitious g =
  let count = ref 0 in
  for i = 0 to Dag.n_tasks g - 1 do
    if is_fictitious g i then incr count
  done;
  !count
