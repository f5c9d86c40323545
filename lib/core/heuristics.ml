type failure = {
  reason : string;
  n_scheduled : int;
}

type result = (Schedule.t, failure) Result.t

let fail state reason = Error { reason; n_scheduled = Sched_state.n_assigned state }

(* Algorithm 1 (MemHEFT), the one copy of its loop: each round scans
   [order] and commits the first task that is ready and memory-feasible,
   its release floor lifted into every pool before the min-EFT choice; a
   full scan without a commit ends the loop.  Committed tasks are unlinked
   from the scan (a singly linked list over positions, sentinel at [m], the
   scan tracking the predecessor), so later rounds only touch the tasks
   still to be placed. *)
let memheft_loop state ~not_before order =
  let m = Array.length order in
  let next = Array.make (m + 1) m in
  let last = ref m in
  for k = 0 to m - 1 do
    if not (Sched_state.is_assigned state order.(k)) then begin
      next.(!last) <- k;
      last := k
    end
  done;
  let rec round () =
    let committed = ref false in
    let prev = ref m in
    let k = ref next.(m) in
    while (not !committed) && !k <> m do
      let i = order.(!k) in
      (if Sched_state.is_ready state i then
         let q = Sched_state.probe state ~not_before i in
         if q >= 0 then begin
           Sched_state.commit state (Sched_state.probe_estimate state i q);
           next.(!prev) <- next.(!k);
           committed := true
         end);
      prev := !k;
      k := next.(!k)
    done;
    if !committed && next.(m) <> m then round ()
  in
  round ()

(* The end of an offline run: complete, or stuck with [n_scheduled] tasks. *)
let outcome state =
  if Sched_state.n_assigned state = Dag.n_tasks (Sched_state.graph state) then
    Ok (Sched_state.schedule state)
  else fail state "no ready task fits within the memory bounds"

let memheft_run ?options ?rng ?ranks ?durations g platform =
  let state = Sched_state.create ?options ?durations g platform in
  let ranks = match ranks with Some r -> r | None -> Rank.upward_ranks ?durations g in
  memheft_loop state ~not_before:(Array.make (Dag.n_tasks g) 0.) (Rank.priority_list ?rng ~ranks g);
  (state, outcome state)

let memheft ?options ?rng ?ranks ?durations g platform =
  snd (memheft_run ?options ?rng ?ranks ?durations g platform)

(* Algorithm 2's selection, shared by MemMinMin and its extensions: each
   round probes every candidate (release floors lifted), scores it by
   [select] over the probe's per-pool slots and its winning pool, and
   commits the candidate with the highest score; on equal scores the
   candidate met first stays.  A round that finds no feasible candidate
   ends the loop.  The incumbent is a task id and an unboxed score slot;
   its estimate is rebuilt by probing it again once the round is over (the
   state has not changed since, so the probe repeats bit for bit). *)
let dynamic_loop state ~not_before ~iter ~select =
  let n = Dag.n_tasks (Sched_state.graph state) in
  let best_task = ref (-1) and best_score = [| 0. |] in
  let probe i =
    let q = Sched_state.probe state ~not_before i in
    if q >= 0 then begin
      let score = select state q in
      if !best_task < 0 || not (best_score.(0) >= score) then begin
        best_task := i;
        best_score.(0) <- score
      end
    end
  in
  let rec round () =
    if Sched_state.n_assigned state < n then begin
      best_task := -1;
      iter probe;
      let i = !best_task in
      if i >= 0 then begin
        let q = Sched_state.probe state ~not_before i in
        Sched_state.commit state (Sched_state.probe_estimate state i q);
        round ()
      end
    end
  in
  round ()

let dynamic_run ?options ?durations ~select g platform =
  let state = Sched_state.create ?options ?durations g platform in
  let not_before = Array.make (Dag.n_tasks g) 0. in
  dynamic_loop state ~not_before ~iter:(Sched_state.iter_ready state) ~select;
  (state, outcome state)

(* Algorithm 2 (MemMinMin).  Among ready tasks, schedule the one with the
   smallest earliest finish time; ties break by task id.  The score is the
   negated EFT of the winning pool, so [s >= score] keeps the incumbent
   exactly when its EFT is no larger. *)
let minmin_select state q = -.Sched_state.probe_eft state q

let memminmin_loop state ~not_before ~iter =
  dynamic_loop state ~not_before ~iter ~select:minmin_select

let memminmin_run ?options ?durations g platform =
  dynamic_run ?options ?durations ~select:minmin_select g platform

let memminmin ?options ?durations g platform = snd (memminmin_run ?options ?durations g platform)

(* Pre-optimisation reference runners: the exact loops shipped before the
   hot-path overhaul — full priority-list rescans over committed tasks, O(n)
   ready-set rebuilds, and [Sched_state.Reference] estimates (three
   predecessor walks, linear staircase scans).  The A/B suite asserts the
   optimised runners above are bit-identical to these, and the fuzzer's
   [o_reference] oracle checks the same on every generated case. *)
let memheft_reference ?options ?rng g platform =
  let state = Sched_state.Reference.create ?options g platform in
  let order = Rank.priority_list ?rng g in
  let n = Dag.n_tasks g in
  let done_ = Array.make n false in
  let remaining = ref n in
  let rec round () =
    if !remaining = 0 then Ok (Sched_state.schedule state)
    else begin
      let committed = ref false in
      let k = ref 0 in
      while (not !committed) && !k < n do
        let i = order.(!k) in
        if (not done_.(i)) && Sched_state.is_ready state i then begin
          match Sched_state.Reference.best_estimate state i with
          | Some e ->
            Sched_state.commit state e;
            done_.(i) <- true;
            decr remaining;
            committed := true
          | None -> ()
        end;
        incr k
      done;
      if !committed then round ()
      else fail state "no ready task fits within the memory bounds"
    end
  in
  round ()

let memminmin_reference ?options g platform =
  let state = Sched_state.Reference.create ?options g platform in
  let n = Dag.n_tasks g in
  let rec round () =
    if Sched_state.n_assigned state = n then Ok (Sched_state.schedule state)
    else begin
      let best = ref None in
      List.iter
        (fun i ->
          match Sched_state.Reference.best_estimate state i with
          | Some e -> (
            match !best with
            | Some b when b.Sched_state.eft <= e.Sched_state.eft -> ()
            | _ -> best := Some e)
          | None -> ())
        (Sched_state.Reference.ready_tasks state);
      match !best with
      | Some e ->
        Sched_state.commit state e;
        round ()
      | None -> fail state "no ready task fits within the memory bounds"
    end
  in
  round ()

(* Dynamic-selection variants from the family of Braun et al. (the paper's
   reference [4] for MinMin) with the same memory-aware machinery.  These
   are extensions beyond the paper, used by the ablation benches:
   - MaxMin: schedule the ready task with the LARGEST best EFT first (give
     long tasks a head start);
   - Sufferage: schedule the task that would suffer most from not getting
     its preferred pool (largest second-best minus best EFT). *)
let memmaxmin ?options g platform =
  let select state q = Sched_state.probe_eft state q in
  snd (dynamic_run ?options ~select g platform)

let memsufferage ?options g platform =
  (* Second-smallest minus smallest EFT over the pools that fit; with one
     fitting pool the second is [infinity]: infinite sufferage, schedule it
     now.  For two pools this is exactly [abs_float (a.eft -. b.eft)]. *)
  let select state _ =
    let lo = ref infinity and lo2 = ref infinity in
    for q = 0 to Platform.n_pools (Sched_state.platform state) - 1 do
      if Sched_state.probe_fits state q then begin
        let f = Sched_state.probe_eft state q in
        if f < !lo then begin
          lo2 := !lo;
          lo := f
        end
        else if f < !lo2 then lo2 := f
      end
    done;
    !lo2 -. !lo
  in
  snd (dynamic_run ?options ~select g platform)

let with_capacity platform cap =
  Platform.with_capacities platform (List.init (Platform.n_pools platform) (fun _ -> cap))

let unbounded_platform platform = with_capacity platform infinity

(* Memory-oblivious runs with the planner's accounting enabled: a capacity of
   the total file size can never constrain any decision (each memory holds at
   most every file at once, and a decision's requirement is disjoint from the
   files already resident), so the run takes exactly the unbounded decisions
   while the state tracks the planned peaks. *)
let never_binding_platform g platform =
  let cap = Float.max 1. (Dag.total_file_size g) in
  with_capacity platform cap

let heft_measured ?options ?rng ?ranks g platform =
  match memheft_run ?options ?rng ?ranks g (never_binding_platform g platform) with
  | state, Ok s ->
    (s, (Sched_state.planned_peak state 0, Sched_state.planned_peak state 1))
  | _, Error _ -> assert false

let minmin_measured ?options g platform =
  match memminmin_run ?options g (never_binding_platform g platform) with
  | state, Ok s ->
    (s, (Sched_state.planned_peak state 0, Sched_state.planned_peak state 1))
  | _, Error _ -> assert false

let heft ?options ?rng ?ranks ?durations g platform =
  match memheft ?options ?rng ?ranks ?durations g (unbounded_platform platform) with
  | Ok s -> s
  | Error _ -> assert false (* unbounded memories: the scan always commits *)

let minmin ?options g platform =
  match memminmin ?options g (unbounded_platform platform) with
  | Ok s -> s
  | Error _ -> assert false

let maxmin ?options g platform =
  match memmaxmin ?options g (unbounded_platform platform) with
  | Ok s -> s
  | Error _ -> assert false

let sufferage ?options g platform =
  match memsufferage ?options g (unbounded_platform platform) with
  | Ok s -> s
  | Error _ -> assert false

type name = HEFT | MinMin | MemHEFT | MemMinMin | MaxMin | Sufferage | MemMaxMin | MemSufferage

let name_to_string = function
  | HEFT -> "HEFT"
  | MinMin -> "MinMin"
  | MemHEFT -> "MemHEFT"
  | MemMinMin -> "MemMinMin"
  | MaxMin -> "MaxMin"
  | Sufferage -> "Sufferage"
  | MemMaxMin -> "MemMaxMin"
  | MemSufferage -> "MemSufferage"

let all_names = [ HEFT; MinMin; MemHEFT; MemMinMin ]

let extension_names = [ MaxMin; Sufferage; MemMaxMin; MemSufferage ]

let is_memory_aware = function
  | HEFT | MinMin | MaxMin | Sufferage -> false
  | MemHEFT | MemMinMin | MemMaxMin | MemSufferage -> true

(* Memory-oblivious heuristics plan against unbounded memories, so their
   schedules are only held to the unbounded constraints. *)
let validation_platform name platform =
  if is_memory_aware name then platform else unbounded_platform platform

let run ?options ?rng ?ranks name g platform =
  match name with
  | HEFT -> Ok (heft ?options ?rng ?ranks g platform)
  | MinMin -> Ok (minmin ?options g platform)
  | MaxMin -> Ok (maxmin ?options g platform)
  | Sufferage -> Ok (sufferage ?options g platform)
  | MemHEFT -> memheft ?options ?rng ?ranks g platform
  | MemMinMin -> memminmin ?options g platform
  | MemMaxMin -> memmaxmin ?options g platform
  | MemSufferage -> memsufferage ?options g platform
