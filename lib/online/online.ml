(* Online list scheduling under dynamic task arrivals.

   Tasks are released over simulated time by an {!Arrival} process.  At
   each release epoch the planner runs the offline heuristics' own loops
   ({!Heuristics.memheft_loop}, {!Heuristics.memminmin_loop}) on one
   persistent {!Sched_state}, so every commit is irrevocable.  No-peeking
   holds because the loops only receive released tasks: the epoch's
   priority order and candidate set are filtered by {!View}.

   Release floors are folded into the estimates by lifting
   ({!Sched_state.lift_estimate}): a task released at [r] gets
   [est' = max(est, r)] and [eft' = est' + W^(pool)].  Lifting a feasible
   estimate keeps it feasible under [Earliest_available], the one processor
   policy the online layer runs.  Under [Batch] every floor is [0.], no
   estimate is lifted, and both planners reproduce their offline
   counterparts bit-for-bit. *)

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

(* The planner's window onto the arrival process: which tasks have been
   released by the current epoch.  The epoch's candidates — the priority
   order and the ready set handed to the loops — hold released tasks only. *)
module View = struct
  type t = {
    state : Sched_state.t;
    releases : float array;
    released : bool array;
    by_release : int array;  (* ids sorted by (release, id) *)
    mutable horizon : int;  (* prefix of [by_release] already released *)
  }

  let make ~arrival g platform =
    let n = Dag.n_tasks g in
    let releases = Arrival.releases arrival g in
    let by_release = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        let c = Float.compare releases.(a) releases.(b) in
        if c <> 0 then c else compare a b)
      by_release;
    {
      state = Sched_state.create g platform;
      releases;
      released = Array.make n false;
      by_release;
      horizon = 0;
    }

  let n_tasks v = Array.length v.released

  (* Release every task that has arrived by simulated time [t]. *)
  let advance_to v t =
    let n = n_tasks v in
    while v.horizon < n && v.releases.(v.by_release.(v.horizon)) <= t do
      v.released.(v.by_release.(v.horizon)) <- true;
      v.horizon <- v.horizon + 1
    done

  let next_release v = if v.horizon < n_tasks v then Some v.releases.(v.by_release.(v.horizon)) else None

  let iter_ready v f = Sched_state.iter_ready v.state (fun i -> if v.released.(i) then f i)

  (* Released tasks by non-increasing released-subgraph rank, ties by id —
     the priority order of the epoch (the loop skips those already
     assigned).  The ranks are [Rank.upward_ranks] with every edge to an
     unreleased child weighted [neg_infinity]: such an edge contributes
     [neg_infinity] to its parent's max, and
     [Float.max acc neg_infinity = acc], so a released task's rank sees
     exactly its released descendants.  With everything released (Batch)
     the two arrays are bit-identical. *)
  let priority_order v =
    let g = Sched_state.graph v.state in
    let e_dst = Dag.Csr.e_dst g and e_comm = Dag.Csr.e_comm g in
    let ranks =
      Paths.bottom_levels g ~node_weight:(Rank.node_weight g) ~edge_weight:(fun k ->
          if v.released.(e_dst.(k)) then e_comm.(k) /. 2. else neg_infinity)
    in
    Rank.priority_list ~ranks g
    |> Array.to_seq
    |> Seq.filter (fun i -> v.released.(i))
    |> Array.of_seq
end

(* One epoch: drain the released subproblem with the paper's loop. *)
let drain v algo =
  let state = v.View.state and not_before = v.View.releases in
  match algo with
  | Heft_like -> Heuristics.memheft_loop state ~not_before (View.priority_order v)
  | Minmin_like -> Heuristics.memminmin_loop state ~not_before ~iter:(View.iter_ready v)

let plan ~algo ~arrival g platform =
  let v = View.make ~arrival g platform in
  let state = v.View.state in
  let n = Dag.n_tasks g in
  let rec run t =
    View.advance_to v t;
    drain v algo;
    if Sched_state.n_assigned state = n then Ok ()
    else
      match View.next_release v with
      | Some t' -> run t'
      | None ->
        Error
          {
            Heuristics.reason = "no released ready task fits within the memory bounds";
            n_scheduled = Sched_state.n_assigned state;
          }
  in
  match run 0. with
  | Error f -> Error f
  | Ok () ->
    let s = Sched_state.schedule state in
    let peak_blue, peak_red = Events.peaks g platform s in
    let decision i =
      {
        d_task = i;
        d_pool = Platform.pool_of_proc platform s.Schedule.procs.(i);
        d_not_before = v.View.releases.(i);
      }
    in
    Ok
      {
        p_algo = algo;
        p_arrival = arrival;
        p_decisions = List.map decision (Sched_state.commit_order state);
        p_schedule = s;
        p_makespan = Schedule.makespan g platform s;
        p_peak_blue = peak_blue;
        p_peak_red = peak_red;
      }
