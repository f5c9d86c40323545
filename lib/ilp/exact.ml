type status = Proven_optimal | Feasible | Proven_infeasible | Unknown

type result = {
  status : status;
  schedule : Schedule.t option;
  makespan : float;
  best_bound : float;
  nodes : int;
}

let eps = 1e-9

(* Shared by both solvers: static per-task lower bound on the remaining
   critical path (min-duration bottom level with free transfers), and the
   heuristic-seeded incumbent. *)
let bottom_levels g =
  Paths.bottom_levels g ~node_weight:(Dag.w_min g) ~edge_weight:(fun _ -> 0.)

let seed_heuristics g platform =
  let incumbent = ref infinity in
  let best_schedule = ref None in
  List.iter
    (fun h ->
      let o = Outcome.run h g platform in
      if o.Outcome.feasible && o.Outcome.makespan < !incumbent then begin
        incumbent := o.Outcome.makespan;
        best_schedule := o.Outcome.schedule
      end)
    [ Heuristics.MemHEFT; Heuristics.MemMinMin ];
  (!incumbent, !best_schedule)

let status_of best_schedule capped =
  match (best_schedule, capped) with
  | Some _, false -> Proven_optimal
  | Some _, true -> Feasible
  | None, false -> Proven_infeasible
  | None, true -> Unknown

(* Pre-overhaul copy-based search, kept as the A/B reference (the qtests
   assert the overhauled solver agrees with it whenever both certify).  The
   edits relative to the original are the float-discipline fixes the lint
   cannot see syntactically ([Float.compare] on the [eft] record fields,
   [Option.is_none] instead of polymorphic [= None]) — both are
   behaviour-identical for non-nan floats — the trivially-derived
   [best_bound] field the overhaul added to [result], and the planning
   state: [Sched_state.Reference], so the reference shares neither the
   estimate code nor the forgetting horizon with the search it checks. *)
let solve_reference ?(node_limit = 2_000_000) g platform =
  let n = Dag.n_tasks g in
  let pools = List.init (Platform.n_pools platform) Fun.id in
  let bottom = bottom_levels g in
  let seed_val, seed_sched = seed_heuristics g platform in
  let incumbent = ref seed_val in
  let best_schedule = ref seed_sched in
  let nodes = ref 0 in
  let capped = ref false in
  (* Depth-first over (ready task, pool) decisions. *)
  let rec explore state current_max =
    if !nodes >= node_limit then capped := true
    else begin
      incr nodes;
      if Sched_state.n_assigned state = n then begin
        if current_max < !incumbent -. eps then begin
          incumbent := current_max;
          best_schedule := Some (Sched_state.schedule (Sched_state.copy state))
        end
      end
      else begin
        let ready = Sched_state.Reference.ready_tasks state in
        (* Candidate decisions with their optimistic completion bound. *)
        let candidates =
          List.concat_map
            (fun i ->
              List.filter_map
                (fun q ->
                  match Sched_state.Reference.estimate state i q with
                  | Some e ->
                    let lb = Float.max current_max (e.Sched_state.est +. bottom.(i)) in
                    if lb >= !incumbent -. eps then None else Some (e, lb)
                  | None -> None)
                pools)
            ready
        in
        let candidates =
          List.sort
            (fun (a, _) (b, _) -> Float.compare a.Sched_state.eft b.Sched_state.eft)
            candidates
        in
        List.iter
          (fun (e, lb) ->
            if lb < !incumbent -. eps && not !capped then begin
              let child = Sched_state.copy state in
              (* Estimates are state-dependent: recompute on the copy. *)
              match Sched_state.Reference.estimate child e.Sched_state.task e.Sched_state.pool with
              | Some e' ->
                Sched_state.commit child e';
                explore child (Float.max current_max e'.Sched_state.eft)
              | None -> ()
            end)
          candidates
      end
    end
  in
  explore (Sched_state.Reference.create g platform) 0.;
  let status = status_of !best_schedule !capped in
  {
    status;
    schedule = !best_schedule;
    makespan = (if Option.is_none !best_schedule then nan else !incumbent);
    best_bound =
      (match status with
      | Proven_optimal -> !incumbent
      | Proven_infeasible -> infinity
      | Feasible | Unknown -> 0.);
    nodes = !nodes;
  }

(* How many transposition signatures a single subtree search may retain.
   Inserts are bounded by the node budget anyway; the cap only guards the
   pathological full-default-budget case (16-byte digests, ~80 bytes per
   hashtable entry). *)
let transposition_cap = 1_000_000

(* How many subtree roots the breadth-first split aims for.  A constant,
   never derived from the pool's job count, so every output is
   jobs-invariant. *)
let frontier = 32

let solve ?pool ?(node_limit = 2_000_000) ?(seed_incumbent = true) g platform =
  let n = Dag.n_tasks g in
  let n_pools = Platform.n_pools platform in
  let bottom = bottom_levels g in
  let seed_val, seed_sched =
    if seed_incumbent then seed_heuristics g platform else (infinity, None)
  in
  let incumbent = ref seed_val in
  let best = ref seed_sched in
  let total_nodes = ref 0 in
  let capped = ref false in
  (* Smallest known lower bound over the abandoned (budget-truncated) parts of
     the tree: together with the incumbent this yields [best_bound]. *)
  let open_lb = ref infinity in
  (* Canonical signature of the set of committed decisions: for every task,
     one presence byte plus (processor, start-time bits) when assigned.  Two
     partial schedules with the same signature have placed the same tasks at
     the same starts on the same processors (the memory is implied by the
     processor), so they expose identical resource and memory state up to
     float dust from commit-order-dependent rounding inside the staircases —
     the same eps-tolerance the whole planner already works under.  Digested
     to 16 bytes so the transposition table stays small. *)
  let signature state =
    let buf = Buffer.create (12 * n) in
    let sched = Sched_state.schedule state in
    for i = 0 to n - 1 do
      if Sched_state.is_assigned state i then begin
        Buffer.add_char buf '\001';
        Buffer.add_uint16_le buf sched.Schedule.procs.(i);
        Buffer.add_int64_le buf (Int64.bits_of_float sched.Schedule.starts.(i))
      end
      else Buffer.add_char buf '\000'
    done;
    Digest.string (Buffer.contents buf)
  in
  (* Latest finish among the parents of [i]. *)
  let pred_off = Dag.Csr.pred_off g and pred_src = Dag.Csr.pred_src g in
  let parents_finish state i =
    let p = ref 0. in
    for k = pred_off.(i) to pred_off.(i + 1) - 1 do
      p := Float.max !p (Sched_state.finish_time state pred_src.(k))
    done;
    !p
  in
  (* Precedence-only node lower bound: a ready task cannot start before its
     latest parent finishes (transfer times excluded — the task's memory is
     not fixed yet, and a same-memory placement pays no transfer), and then
     needs its min-duration bottom level.  Unlike the per-candidate
     [est + bottom] bound this never uses memory-dependent ESTs, which are
     not monotone under further commits (releases can free memory and move a
     task's memory-EST earlier), so it is sound as a node-level prune. *)
  let prec_bound state =
    List.fold_left
      (fun acc i -> Float.max acc (parents_finish state i +. bottom.(i)))
      0.
      (Sched_state.ready_tasks state)
  in
  (* The decisions a node branches on, with their optimistic completion
     bound [max(current_max, est + bottom)]: every pool that fits, of every
     ready task, whose bound beats the incumbent — in ascending (task, pool)
     order, then stably sorted by EFT.  One probe per ready task evaluates
     all its pools.  The precedence-only prescreen skips the probe when even
     [parents_finish + bottom] cannot beat the incumbent: every pool's EST is
     at least the latest parent finish, so the bound filter would drop all
     of that task's pools anyway and the list is unchanged. *)
  let zero_floors = Array.make n 0. in
  let candidates state ~current_max ~incumbent =
    let acc = ref [] in
    Sched_state.iter_ready state (fun i ->
        if
          Float.max current_max (parents_finish state i +. bottom.(i)) < incumbent -. eps
          && Sched_state.probe state ~not_before:zero_floors i >= 0
        then
          for q = 0 to n_pools - 1 do
            if Sched_state.probe_fits state q then begin
              let e = Sched_state.probe_estimate state i q in
              let lb = Float.max current_max (e.Sched_state.est +. bottom.(i)) in
              if lb < incumbent -. eps then acc := (e, lb) :: !acc
            end
          done);
    List.sort
      (fun (a, _) (b, _) -> Float.compare a.Sched_state.eft b.Sched_state.eft)
      (List.rev !acc)
  in
  (* In-place depth-first search over a trailing state: commit, recurse,
     uncommit. *)
  let search state ~start_max ~budget ~incumbent0 =
    let inc = ref incumbent0 in
    let found = ref None in
    let nodes = ref 0 in
    let cap = ref false in
    let olb = ref infinity in
    let seen = Hashtbl.create 1024 in
    let rec explore current_max =
      if !nodes >= budget then begin
        cap := true;
        if current_max < !olb then olb := current_max
      end
      else begin
        incr nodes;
        if Sched_state.n_assigned state = n then begin
          if current_max < !inc -. eps then begin
            inc := current_max;
            found := Some (Sched_state.snapshot_schedule state)
          end
        end
        else begin
          (* Bound prune first (certified, no table traffic), then the
             transposition check. *)
          let dominated =
            Float.max current_max (prec_bound state) >= !inc -. eps
            ||
            let key = signature state in
            Hashtbl.mem seen key
            ||
            (if Hashtbl.length seen < transposition_cap then Hashtbl.add seen key ();
             false)
          in
          if not dominated then
            List.iter
              (fun (e, lb) ->
                if lb < !inc -. eps && not !cap then begin
                  Sched_state.commit state e;
                  explore (Float.max current_max e.Sched_state.eft);
                  Sched_state.uncommit state
                end
                else if !cap && lb < !inc -. eps && lb < !olb then olb := lb)
              (candidates state ~current_max ~incumbent:!inc)
        end
      end
    in
    explore start_max;
    (!inc, !found, !nodes, !cap, !olb)
  in
  let fresh_state () =
    let st = Sched_state.create g platform in
    Sched_state.set_trail st true;
    st
  in
  (* Breadth-first expansion of the root into a frontier of subtree roots.
     The frontier size is a fixed constant — never a function of the pool's
     job count — so the decomposition, every subtree budget, every node count
     and hence every output byte is identical for every --jobs value; the
     pool only changes how many subtrees run at once.  Each queue entry is a
     decision prefix (reversed) plus the max EFT along it; prefixes are
     replayed onto one trailing state to expand them. *)
  let state = fresh_state () in
  let replay prefix = List.iter (fun e -> Sched_state.commit state e) (List.rev prefix) in
  let unreplay prefix = List.iter (fun _ -> Sched_state.uncommit state) prefix in
  let roots = Queue.create () in
  Queue.add ([], 0.) roots;
  let continue = ref true in
  while !continue && not (Queue.is_empty roots) && Queue.length roots < frontier do
    let prefix, pmax = Queue.take roots in
    if !total_nodes >= node_limit then begin
      capped := true;
      if pmax < !open_lb then open_lb := pmax;
      continue := false
    end
    else begin
      incr total_nodes;
      replay prefix;
      if Sched_state.n_assigned state = n then begin
        if pmax < !incumbent -. eps then begin
          incumbent := pmax;
          best := Some (Sched_state.snapshot_schedule state)
        end
      end
      else if Float.max pmax (prec_bound state) < !incumbent -. eps then
        List.iter
          (fun (e, _) -> Queue.add (e :: prefix, Float.max pmax e.Sched_state.eft) roots)
          (candidates state ~current_max:pmax ~incumbent:!incumbent);
      unreplay prefix
    end
  done;
  let subtrees = List.of_seq (Queue.to_seq roots) in
  let have_subtrees = match subtrees with [] -> false | _ :: _ -> true in
  if !capped || !total_nodes >= node_limit then begin
    (* Budget exhausted during expansion: the remaining roots are abandoned
       open parts of the tree. *)
    if have_subtrees then capped := true;
    List.iter (fun (_, pmax) -> if pmax < !open_lb then open_lb := pmax) subtrees
  end
  else if have_subtrees then begin
    let budget_per = max 1 ((node_limit - !total_nodes) / List.length subtrees) in
    (* Freeze the incumbent at split time: workers never share improvements
       (cross-worker sharing would make pruning depend on completion order,
       i.e. on the job count). *)
    let split_incumbent = !incumbent in
    let solve_subtree (prefix, pmax) =
      let st = fresh_state () in
      List.iter (fun e -> Sched_state.commit st e) (List.rev prefix);
      search st ~start_max:pmax ~budget:budget_per ~incumbent0:split_incumbent
    in
    let results =
      match pool with
      | Some p -> Par.parallel_map p ~f:solve_subtree subtrees
      | None -> List.map solve_subtree subtrees
    in
    (* Merge in subtree order — deterministic and jobs-invariant. *)
    List.iter
      (fun (inc, found, nodes, cap, olb) ->
        total_nodes := !total_nodes + nodes;
        if cap then capped := true;
        if olb < !open_lb then open_lb := olb;
        match found with
        | Some s when inc < !incumbent -. eps ->
          incumbent := inc;
          best := Some s
        | _ -> ())
      results
  end;
  let status = status_of !best !capped in
  let best_bound =
    match status with
    | Proven_optimal -> !incumbent
    | Proven_infeasible -> infinity
    | Feasible -> Float.min !incumbent !open_lb
    | Unknown -> if !open_lb < infinity then !open_lb else 0.
  in
  {
    status;
    schedule = !best;
    makespan = (if Option.is_none !best then nan else !incumbent);
    best_bound;
    nodes = !total_nodes;
  }
