type status = Optimal | Feasible | Infeasible | Unknown

type solution = {
  status : status;
  incumbent : (float array * float) option;
  best_bound : float;
  nodes : int;
}

(* A relaxation value within [int_tol] of an integer counts as integral; a
   branch whose bound is within [gap_tol] of the incumbent is pruned. *)
let int_tol = 1e-6
let gap_tol = 1e-6

let solve ?(node_limit = 200_000) ?time_limit ?incumbent ?(warm_start = true) lp =
  (* The wall-clock budget is an explicit caller opt-in (off by default);
     campaign code never passes [time_limit], so determinism holds there. *)
  let deadline = Option.map (fun s -> Sys.time () +. s) time_limit in (* lint: allow determinism -- opt-in time budget *)
  let out_of_time () = match deadline with Some d -> Sys.time () > d | None -> false in (* lint: allow determinism -- opt-in time budget *)
  let n = Lp.n_vars lp in
  let original =
    Array.init n (fun i ->
        let v = Lp.var lp i in
        (v.Lp.lb, v.Lp.ub))
  in
  let restore () = Array.iteri (fun v (lb, ub) -> Lp.override_bounds lp v ~lb ~ub) original in
  let best : (float array * float) option ref = ref None in
  let upper = ref (Option.value ~default:infinity incumbent) in
  let nodes = ref 0 in
  let capped = ref false in
  let open_bounds = ref [] in
  (* DFS.  Each node's bound overrides are applied before its relaxation and
     undone by re-applying the parent's full fixing list.  With [warm_start]
     each node re-solves from its parent's optimal basis with the dual
     simplex (bound changes keep that basis dual-feasible); any shape break,
     restore failure or iteration cap falls back to the cold two-phase solve,
     which also refreshes the warm basis for the node's own children. *)
  let rec explore fixings warm =
    if !nodes >= node_limit || out_of_time () then capped := true
    else begin
      incr nodes;
      restore ();
      (* Oldest first, so a re-branched variable keeps its newest bounds. *)
      List.iter (fun (v, lb, ub) -> Lp.override_bounds lp v ~lb ~ub) (List.rev fixings);
      let relax, warm' =
        if not warm_start then (Simplex.solve_relaxation lp, None)
        else
          match warm with
          | Some w -> (
            (* A bound change needs few dual pivots from the parent basis; a
               node that wants more is cheaper to re-solve cold than to let
               the dual iteration (which prices every column) grind on. *)
            match Simplex.resolve_dual ~max_iters:500 w lp with
            | Some (res, w') -> (res, w')
            | None -> Simplex.solve_relaxation_warm lp)
          | None -> Simplex.solve_relaxation_warm lp
      in
      match relax with
      | Simplex.Infeasible -> ()
      | Simplex.Unbounded | Simplex.Capped ->
        (* No valid bound for this subtree: remember it stays open. *)
        open_bounds := neg_infinity :: !open_bounds;
        capped := true
      | Simplex.Optimal { x; obj } ->
        if obj >= !upper -. gap_tol then ()
        else begin
          (* Most fractional integer variable. *)
          let frac_var = ref (-1) in
          let frac_dist = ref int_tol in
          for v = 0 to n - 1 do
            match (Lp.var lp v).Lp.kind with
            | Lp.Continuous -> ()
            | Lp.Binary | Lp.General_integer ->
              let d = abs_float (x.(v) -. Float.round x.(v)) in
              if d > !frac_dist then begin
                frac_dist := d;
                frac_var := v
              end
          done;
          if !frac_var < 0 then begin
            if obj < !upper then begin
              upper := obj;
              best := Some (Array.copy x, obj)
            end
          end
          else begin
            let v = !frac_var in
            let lb0, ub0 =
              match List.find_opt (fun (v', _, _) -> v' = v) fixings with
              | Some (_, lb, ub) -> (lb, ub)
              | None -> original.(v)
            in
            let xv = x.(v) in
            let lo = (v, lb0, floor xv) and hi = (v, ceil xv, ub0) in
            let first, second = if xv -. floor xv <= 0.5 then (lo, hi) else (hi, lo) in
            explore (first :: fixings) warm';
            explore (second :: fixings) warm'
          end
        end
    end
  in
  explore [] None;
  restore ();
  let status =
    match (!best, !capped) with
    | Some _, false -> Optimal
    | Some _, true -> Feasible
    | None, false -> Infeasible
    | None, true -> Unknown
  in
  let best_bound =
    match status with
    | Optimal -> ( match !best with Some (_, obj) -> obj | None -> neg_infinity)
    | Feasible | Unknown | Infeasible -> neg_infinity
  in
  { status; incumbent = !best; best_bound; nodes = !nodes }
