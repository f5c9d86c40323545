(* Request dispatcher: one scheduling request in, one response body out.

   This is the function the daemon ships to pool workers, so it must be a
   pure, deterministic map from the decoded request to the response body —
   no wall clock, no shared state, no pool handle (per-request compute runs
   serially inside its worker; requests parallelise across workers).  Every
   algorithm below is bit-deterministic (PRs 1–5), which is what makes the
   content-addressed cache exact: a cached body is byte-for-byte what a
   fresh computation would return.

   The per-request error path is also here: any exception a computation
   raises is folded into a structured [Failure] response so one poisoned
   request can never take the daemon down. *)

(* Multistart and the exact search are memory-aware. *)
let check_platform platform = function
  | Wire.Heuristic name -> Heuristics.validation_platform name platform
  | Wire.Multistart | Wire.Exact -> platform

let ok_of_schedule (req : Wire.request) ~proof (s : Schedule.t) =
  match Validator.validate req.Wire.dag (check_platform req.Wire.platform req.Wire.algo) s with
  | Ok r ->
    Wire.Schedule
      {
        Wire.r_algo = req.Wire.algo;
        makespan = r.Validator.makespan;
        peak_blue = r.Validator.peak_blue;
        peak_red = r.Validator.peak_red;
        proof;
        starts = s.Schedule.starts;
        procs = s.Schedule.procs;
        comm_starts = s.Schedule.comm_starts;
      }
  | Error errs ->
    (* A scheduler emitting an invalid schedule is a bug; surface it as a
       structured failure rather than killing the daemon. *)
    Wire.Failure
      {
        code = Wire.err_compute;
        message = "internal: schedule failed validation: " ^ String.concat "; " errs;
      }

let infeasible_of_failure (f : Heuristics.failure) =
  Wire.Infeasible { n_scheduled = f.Heuristics.n_scheduled; reason = f.Heuristics.reason }

let compute (req : Wire.request) =
  let g = req.Wire.dag and p = req.Wire.platform in
  try
    match req.Wire.algo with
    | Wire.Heuristic name -> (
      match Heuristics.run name g p with
      | Ok s -> ok_of_schedule req ~proof:Wire.Heuristic_result s
      | Error f -> infeasible_of_failure f)
    | Wire.Multistart -> (
      let m =
        Multistart.memheft ~restarts:req.Wire.restarts ~seed:(Int64.to_int req.Wire.seed) g p
      in
      match m.Multistart.best with
      | Ok s -> ok_of_schedule req ~proof:Wire.Heuristic_result s
      | Error f -> infeasible_of_failure f)
    | Wire.Exact -> (
      let r = Exact.solve ~node_limit:req.Wire.node_limit g p in
      match (r.Exact.status, r.Exact.schedule) with
      | Exact.Proven_optimal, Some s ->
        ok_of_schedule req
          ~proof:(Wire.Exact_optimal { nodes = r.Exact.nodes; bound = r.Exact.best_bound })
          s
      | (Exact.Feasible | Exact.Unknown), Some s ->
        ok_of_schedule req
          ~proof:(Wire.Exact_budget { nodes = r.Exact.nodes; bound = r.Exact.best_bound })
          s
      | Exact.Proven_infeasible, _ | (Exact.Proven_optimal | Exact.Feasible | Exact.Unknown), None ->
        let reason =
          match r.Exact.status with
          | Exact.Proven_infeasible -> "exact: proven infeasible"
          | Exact.Unknown -> "exact: node budget exhausted without an incumbent"
          | Exact.Proven_optimal | Exact.Feasible ->
            "exact: internal: feasible status without a schedule"
        in
        Wire.Infeasible { n_scheduled = 0; reason })
  with e -> Wire.Failure { code = Wire.err_compute; message = Printexc.to_string e }

(* The unit of work the server submits to the pool: compute and encode in
   the worker, so the serial emit loop only moves bytes. *)
let compute_bytes req = Wire.encode_body (compute req)
