(* Greedy instance minimiser.

   Given an instance on which an oracle fails, repeatedly try structural
   simplifications — delete a task (with its incident edges), delete an
   edge, loosen one memory cap to infinity, drop extra processors — and
   keep any candidate on which the oracle still fails.  The loop runs to a
   fixpoint (or an attempt budget), so the reported instance is 1-minimal
   with respect to the candidate moves: no single deletion preserves the
   violation.  All candidates are tried in a deterministic order, so
   shrinking is reproducible. *)

let remove_task (i : Fuzz_instance.t) victim =
  let g = i.Fuzz_instance.dag in
  let b = Dag.Builder.create () in
  let remap = Array.make (Dag.n_tasks g) (-1) in
  Array.iter
    (fun (t : Dag.task) ->
      if t.Dag.id <> victim then
        remap.(t.Dag.id) <-
          Dag.Builder.add_task b ~name:t.Dag.name ~w_blue:t.Dag.w_blue ~w_red:t.Dag.w_red ())
    (Dag.tasks g);
  Array.iter
    (fun (e : Dag.edge) ->
      if e.Dag.src <> victim && e.Dag.dst <> victim then
        Dag.Builder.add_edge b ~src:remap.(e.Dag.src) ~dst:remap.(e.Dag.dst) ~size:e.Dag.size
          ~comm:e.Dag.comm)
    (Dag.edges g);
  { i with Fuzz_instance.dag = Dag.Builder.finalize b }

let remove_edge (i : Fuzz_instance.t) victim =
  let g = i.Fuzz_instance.dag in
  let b = Dag.Builder.create () in
  Array.iter
    (fun (t : Dag.task) ->
      ignore (Dag.Builder.add_task b ~name:t.Dag.name ~w_blue:t.Dag.w_blue ~w_red:t.Dag.w_red ()))
    (Dag.tasks g);
  Array.iter
    (fun (e : Dag.edge) ->
      if e.Dag.eid <> victim then
        Dag.Builder.add_edge b ~src:e.Dag.src ~dst:e.Dag.dst ~size:e.Dag.size ~comm:e.Dag.comm)
    (Dag.edges g);
  { i with Fuzz_instance.dag = Dag.Builder.finalize b }

let with_platform (i : Fuzz_instance.t) platform = { i with Fuzz_instance.platform }

(* Candidate simplifications, strongest first.  Tasks are removed from the
   highest id down so sinks go before their ancestors (which keeps the DAG
   connected longer and converges in fewer rounds on layered graphs). *)
let candidates (i : Fuzz_instance.t) =
  let g = i.Fuzz_instance.dag and p = i.Fuzz_instance.platform in
  let tasks =
    List.init (Dag.n_tasks g) (fun k -> Dag.n_tasks g - 1 - k)
    |> List.map (fun t () -> remove_task i t)
  in
  let edges =
    List.init (Dag.n_edges g) (fun k -> Dag.n_edges g - 1 - k)
    |> List.map (fun e () -> remove_edge i e)
  in
  let cap m = Platform.capacity p m in
  let platforms =
    List.concat
      [ (if Platform.n_procs_of p Platform.Blue > 1 then
           [ (fun () ->
               with_platform i
                 (Platform.make ~p_blue:1
                    ~p_red:(Platform.n_procs_of p Platform.Red)
                    ~m_blue:(cap Platform.Blue) ~m_red:(cap Platform.Red))) ]
         else []);
        (if Platform.n_procs_of p Platform.Red > 1 then
           [ (fun () ->
               with_platform i
                 (Platform.make
                    ~p_blue:(Platform.n_procs_of p Platform.Blue)
                    ~p_red:1 ~m_blue:(cap Platform.Blue) ~m_red:(cap Platform.Red))) ]
         else []);
        (if cap Platform.Blue < infinity then
           [ (fun () ->
               with_platform i (Platform.with_bounds p ~m_blue:infinity ~m_red:(cap Platform.Red))) ]
         else []);
        (if cap Platform.Red < infinity then
           [ (fun () ->
               with_platform i (Platform.with_bounds p ~m_blue:(cap Platform.Blue) ~m_red:infinity)) ]
         else []) ]
  in
  tasks @ edges @ platforms

type result = {
  instance : Fuzz_instance.t;
  rounds : int;
  attempts : int;  (** oracle evaluations spent *)
}

let still_fails cfg (oracle : Fuzz_oracle.t) inst =
  match oracle.Fuzz_oracle.check cfg inst with Fuzz_oracle.Fail _ -> true | _ -> false

(* Bound on the oracle evaluations one shrink may spend. *)
let max_attempts = 1500

let shrink cfg (oracle : Fuzz_oracle.t) instance =
  let attempts = ref 0 in
  let rec fixpoint rounds current =
    let rec try_candidates = function
      | [] -> None
      | make :: rest ->
        if !attempts >= max_attempts then None
        else begin
          incr attempts;
          match
            let cand = make () in
            if still_fails cfg oracle cand then Some cand else None
          with
          | Some cand -> Some cand
          | None -> try_candidates rest
          | exception _ ->
            (* A candidate that breaks an invariant of the builders or the
               schedulers is simply not a valid simplification. *)
            try_candidates rest
        end
    in
    match try_candidates (candidates current) with
    | Some smaller -> fixpoint (rounds + 1) smaller
    | None -> { instance = current; rounds; attempts = !attempts }
  in
  fixpoint 0 instance
