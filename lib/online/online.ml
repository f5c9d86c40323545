(* Online list scheduling under dynamic task arrivals.

   Tasks are released over simulated time by an {!Arrival} process; the
   planner only ever sees released tasks and commits decisions irrevocably
   through the same incremental machinery ({!Sched_state}) as the offline
   heuristics.  The no-peeking discipline is enforced structurally: the
   decision loops are written against {!View}, whose operations answer
   [None]/raise for unreleased tasks, rather than against the raw state.

   Release floors are folded into the estimates by lifting: a task released
   at [r] gets [est' = max(est, r)] and [eft' = est' + W^(pool)].  Lifting a
   feasible estimate keeps it feasible because every component of the
   machinery is monotone in the start time — staircase feasibility is a
   suffix minimum (later suffixes have no smaller minimum), transfer windows
   move later with the start, and [Earliest_available] accepts any processor
   available by the start.  Under [Batch] every floor is [0.], no estimate
   is lifted, and both planners reproduce their offline counterparts
   bit-for-bit. *)

type algo = Heft_like | Minmin_like

let algo_label = function Heft_like -> "memheft" | Minmin_like -> "memminmin"

type decision = {
  d_task : int;
  d_pool : int;
  d_not_before : float;  (* the task's release time: its start-time floor *)
}

type plan = {
  p_algo : algo;
  p_arrival : Arrival.process;
  p_decisions : decision list;  (* chronological commit order *)
  p_schedule : Schedule.t;
  p_makespan : float;
  p_peak_blue : float;
  p_peak_red : float;
}

let lift_estimate state ~not_before (e : Sched_state.estimate) =
  if e.Sched_state.est >= not_before then e
  else
    {
      e with
      Sched_state.est = not_before;
      eft = not_before +. Sched_state.duration state e.Sched_state.task e.Sched_state.pool;
    }

module View = struct
  type t = {
    state : Sched_state.t;
    releases : float array;
    released : bool array;
    by_release : int array;  (* ids sorted by (release, id) *)
    mutable horizon : int;  (* prefix of [by_release] already released *)
    mutable now : float;
    mutable decisions : decision list;  (* reverse chronological *)
  }

  let make ?options ~arrival g platform =
    let n = Dag.n_tasks g in
    let releases = Arrival.releases arrival g in
    let by_release = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        let c = Float.compare releases.(a) releases.(b) in
        if c <> 0 then c else compare a b)
      by_release;
    {
      state = Sched_state.create ?options g platform;
      releases;
      released = Array.make n false;
      by_release;
      horizon = 0;
      now = 0.;
      decisions = [];
    }

  let graph v = Sched_state.graph v.state
  let n_tasks v = Array.length v.released
  let n_assigned v = Sched_state.n_assigned v.state
  let now v = v.now
  let is_released v i = v.released.(i)

  (* Advance simulated time, releasing every task that has arrived. *)
  let advance_to v t =
    if t >= v.now then v.now <- t;
    let n = n_tasks v in
    while v.horizon < n && v.releases.(v.by_release.(v.horizon)) <= v.now do
      v.released.(v.by_release.(v.horizon)) <- true;
      v.horizon <- v.horizon + 1
    done

  let next_release v = if v.horizon < n_tasks v then Some v.releases.(v.by_release.(v.horizon)) else None

  let iter_ready v f = Sched_state.iter_ready v.state (fun i -> if v.released.(i) then f i)

  (* Minimum-EFT estimate over the pools with the release floor folded in:
     each per-pool estimate is lifted, then compared — so the floor can flip
     the winning pool when it erases another pool's head start. *)
  let best_estimate v i =
    if not v.released.(i) then None
    else
      Sched_state.best_of
        (Array.map
           (Option.map (lift_estimate v.state ~not_before:v.releases.(i)))
           (Sched_state.estimates v.state i))

  let commit v (e : Sched_state.estimate) =
    let i = e.Sched_state.task in
    if not v.released.(i) then invalid_arg "Online.View.commit: task not released";
    Sched_state.commit v.state e;
    v.decisions <-
      { d_task = i; d_pool = e.Sched_state.pool; d_not_before = v.releases.(i) }
      :: v.decisions

  (* Unassigned released tasks by non-increasing released-subgraph rank,
     ties by id — the priority order of the epoch.  The ranks are
     [Rank.upward_ranks] with every edge to an unreleased child weighted
     [neg_infinity]: such an edge contributes [neg_infinity] to its parent's
     max, and [Float.max acc neg_infinity = acc], so a released task's rank
     sees exactly its released descendants.  With everything released
     (Batch) the two arrays are bit-identical. *)
  let priority_order v =
    let g = graph v in
    let e_dst = Dag.Csr.e_dst g and e_comm = Dag.Csr.e_comm g in
    let rank =
      Paths.bottom_levels g ~node_weight:(Rank.node_weight g) ~edge_weight:(fun k ->
          if v.released.(e_dst.(k)) then e_comm.(k) /. 2. else neg_infinity)
    in
    let acc = ref [] in
    for i = n_tasks v - 1 downto 0 do
      if v.released.(i) && not (Sched_state.is_assigned v.state i) then acc := i :: !acc
    done;
    let order = Array.of_list !acc in
    let cmp a b =
      let c = Float.compare rank.(b) rank.(a) in
      if c <> 0 then c else compare a b
    in
    Array.sort cmp order;
    order
end

(* One epoch of online MemHEFT: rebuild the priority order of the released
   subgraph, then repeat the Algorithm 1 scan — commit the first released
   ready task that fits, restart — until a full scan commits nothing. *)
let heft_drain v =
  let order = View.priority_order v in
  let m = Array.length order in
  let taken = Array.make m false in
  let progress = ref true in
  while !progress do
    progress := false;
    let k = ref 0 in
    while (not !progress) && !k < m do
      let i = order.(!k) in
      if not taken.(!k) then begin
        match View.best_estimate v i with
        | Some e ->
          View.commit v e;
          taken.(!k) <- true;
          progress := true
        | None -> ()
      end;
      incr k
    done
  done

(* One epoch of online MemMinMin: among released ready tasks, commit the one
   with the smallest (lifted) EFT; ties keep the earlier candidate, exactly
   as Algorithm 2 does offline. *)
let minmin_drain v =
  let progress = ref true in
  while !progress do
    progress := false;
    let best = ref None in
    View.iter_ready v (fun i ->
        match View.best_estimate v i with
        | Some e -> (
          match !best with
          | Some b when b.Sched_state.eft <= e.Sched_state.eft -> ()
          | _ -> best := Some e)
        | None -> ());
    match !best with
    | Some e ->
      View.commit v e;
      progress := true
    | None -> ()
  done

let plan ?options ~algo ~arrival g platform =
  let v = View.make ?options ~arrival g platform in
  let drain = match algo with Heft_like -> heft_drain | Minmin_like -> minmin_drain in
  let n = Dag.n_tasks g in
  let rec run t =
    View.advance_to v t;
    drain v;
    if View.n_assigned v = n then Ok ()
    else
      match View.next_release v with
      | Some t' -> run t'
      | None ->
        Error
          {
            Heuristics.reason = "no released ready task fits within the memory bounds";
            n_scheduled = View.n_assigned v;
          }
  in
  match run 0. with
  | Error f -> Error f
  | Ok () ->
    let s = Sched_state.schedule v.View.state in
    let peak_blue, peak_red = Events.peaks g platform s in
    Ok
      {
        p_algo = algo;
        p_arrival = arrival;
        p_decisions = List.rev v.View.decisions;
        p_schedule = s;
        p_makespan = Schedule.makespan g platform s;
        p_peak_blue = peak_blue;
        p_peak_red = peak_red;
      }

(* An offline heuristic run repackaged as a plan: the decision sequence is
   read back from the state's commit log, every floor is zero.  Bit-identical
   to [plan ~arrival:Batch] — asserted by the test suite. *)
let plan_of_offline ?options ~algo g platform =
  let state, result =
    match algo with
    | Heft_like -> Heuristics.memheft_run ?options g platform
    | Minmin_like -> Heuristics.memminmin_run ?options g platform
  in
  match result with
  | Error f -> Error f
  | Ok s ->
    let peak_blue, peak_red = Events.peaks g platform s in
    Ok
      {
        p_algo = algo;
        p_arrival = Arrival.Batch;
        p_decisions =
          List.map
            (fun i ->
              { d_task = i; d_pool = Platform.pool_of_proc platform s.Schedule.procs.(i); d_not_before = 0. })
            (Sched_state.commit_order state);
        p_schedule = s;
        p_makespan = Schedule.makespan g platform s;
        p_peak_blue = peak_blue;
        p_peak_red = peak_red;
      }
