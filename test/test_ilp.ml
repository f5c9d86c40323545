(* Tests for the ILP layer: the Lp model object, the simplex solver, the
   branch-and-bound MIP, the CPLEX-LP writer, the paper's full formulation,
   and the exact scheduler. *)

open Helpers

(* ------------------------------------------------------------------ Lp --- *)

let test_lp_build () =
  let lp = Lp.create () in
  let x = Lp.add_var lp "x" in
  let y = Lp.add_var lp ~lb:1. ~ub:4. ~kind:Lp.Binary "y" in
  Lp.add_constr lp ~name:"c" [ (1., x); (2., y) ] Lp.Le 5.;
  Lp.set_objective lp (Lp.Minimize [ (1., x) ]);
  check_int "vars" 2 (Lp.n_vars lp);
  check_int "constrs" 1 (Lp.n_constrs lp);
  check_float "binary ub clamped" 1. (Lp.var lp y).Lp.ub;
  check_float "binary lb clamped" 1. (Lp.var lp y).Lp.lb

let test_lp_normalizes_terms () =
  let lp = Lp.create () in
  let x = Lp.add_var lp "x" in
  Lp.add_constr lp ~name:"c" [ (1., x); (2., x); (0., x) ] Lp.Eq 3.;
  match (Lp.constrs lp).(0).Lp.terms with
  | [ (c, v) ] ->
    check_float "merged" 3. c;
    check_int "var" x v
  | _ -> Alcotest.fail "expected one merged term"

let test_lp_violations () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:2. "x" in
  Lp.add_constr lp ~name:"c" [ (1., x) ] Lp.Ge 1.;
  check_float "feasible point" 0. (Lp.constraint_violation lp [| 1.5 |]);
  check_float "constraint violated" 1. (Lp.constraint_violation lp [| 0. |]);
  check_float "bound violated" 1. (Lp.constraint_violation lp [| 3. |])

let test_lp_integer_violation () =
  let lp = Lp.create () in
  let _x = Lp.add_var lp ~kind:Lp.Binary "x" in
  let _y = Lp.add_var lp "y" in
  check_float "frac" 0.4 (Lp.integer_violation lp [| 0.4; 0.7 |]);
  check_float "integral" 0. (Lp.integer_violation lp [| 1.; 0.7 |])

let test_lp_fix_and_override () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:5. "x" in
  Lp.fix lp x 2.;
  check_float "fixed lb" 2. (Lp.var lp x).Lp.lb;
  check_float "fixed ub" 2. (Lp.var lp x).Lp.ub;
  Lp.override_bounds lp x ~lb:0. ~ub:1.;
  check_float "restored" 1. (Lp.var lp x).Lp.ub;
  Alcotest.check_raises "bad fix" (Invalid_argument "Lp.fix: value out of bounds") (fun () ->
      Lp.fix lp x 9.)

(* ------------------------------------------------------------- simplex --- *)

let solve_expect lp =
  match Simplex.solve_relaxation lp with
  | Simplex.Optimal { x; obj } -> (x, obj)
  | Simplex.Infeasible -> Alcotest.fail "unexpectedly infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpectedly unbounded"
  | Simplex.Capped -> Alcotest.fail "iteration cap hit"

let test_simplex_basic () =
  (* max x + y s.t. x + 2y <= 4, 3x + y <= 6  ->  min -(x+y), opt at (8/5, 6/5). *)
  let lp = Lp.create () in
  let x = Lp.add_var lp "x" and y = Lp.add_var lp "y" in
  Lp.add_constr lp ~name:"a" [ (1., x); (2., y) ] Lp.Le 4.;
  Lp.add_constr lp ~name:"b" [ (3., x); (1., y) ] Lp.Le 6.;
  Lp.set_objective lp (Lp.Maximize [ (1., x); (1., y) ]);
  let sol, obj = solve_expect lp in
  check_float_eps 1e-6 "x" 1.6 sol.(x);
  check_float_eps 1e-6 "y" 1.2 sol.(y);
  check_float_eps 1e-6 "obj" 2.8 obj

let test_simplex_equality_and_ge () =
  (* min x + y s.t. x + y >= 2, x - y = 1  ->  (1.5, 0.5). *)
  let lp = Lp.create () in
  let x = Lp.add_var lp "x" and y = Lp.add_var lp "y" in
  Lp.add_constr lp ~name:"a" [ (1., x); (1., y) ] Lp.Ge 2.;
  Lp.add_constr lp ~name:"b" [ (1., x); (-1., y) ] Lp.Eq 1.;
  Lp.set_objective lp (Lp.Minimize [ (1., x); (1., y) ]);
  let sol, obj = solve_expect lp in
  check_float_eps 1e-6 "obj" 2. obj;
  check_float_eps 1e-6 "x" 1.5 sol.(x)

let test_simplex_bounds () =
  (* min x with 1 <= x <= 3 -> 1; max x -> 3 (via upper-bound row). *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~lb:1. ~ub:3. "x" in
  Lp.set_objective lp (Lp.Minimize [ (1., x) ]);
  let sol, _ = solve_expect lp in
  check_float_eps 1e-6 "min at lb" 1. sol.(x);
  Lp.set_objective lp (Lp.Maximize [ (1., x) ]);
  let sol, _ = solve_expect lp in
  check_float_eps 1e-6 "max at ub" 3. sol.(x)

let test_simplex_fixed_vars_substituted () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:10. "x" in
  let y = Lp.add_var lp ~ub:10. "y" in
  Lp.fix lp y 4.;
  Lp.add_constr lp ~name:"a" [ (1., x); (1., y) ] Lp.Ge 6.;
  Lp.set_objective lp (Lp.Minimize [ (1., x) ]);
  let sol, obj = solve_expect lp in
  check_float_eps 1e-6 "x adjusts to the constant" 2. sol.(x);
  check_float_eps 1e-6 "fixed var reported" 4. sol.(y);
  check_float_eps 1e-6 "obj" 2. obj

let test_simplex_infeasible () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:1. "x" in
  Lp.add_constr lp ~name:"a" [ (1., x) ] Lp.Ge 2.;
  Lp.set_objective lp (Lp.Minimize [ (1., x) ]);
  check_bool "infeasible" true (Simplex.solve_relaxation lp = Simplex.Infeasible)

let test_simplex_unbounded () =
  let lp = Lp.create () in
  let x = Lp.add_var lp "x" in
  Lp.set_objective lp (Lp.Maximize [ (1., x) ]);
  check_bool "unbounded" true (Simplex.solve_relaxation lp = Simplex.Unbounded)

let test_simplex_degenerate () =
  (* Degenerate vertex: several constraints meet at the optimum. *)
  let lp = Lp.create () in
  let x = Lp.add_var lp "x" and y = Lp.add_var lp "y" in
  Lp.add_constr lp ~name:"a" [ (1., x); (1., y) ] Lp.Le 1.;
  Lp.add_constr lp ~name:"b" [ (1., x) ] Lp.Le 1.;
  Lp.add_constr lp ~name:"c" [ (1., y) ] Lp.Le 1.;
  Lp.set_objective lp (Lp.Maximize [ (1., x); (1., y) ]);
  let _, obj = solve_expect lp in
  check_float_eps 1e-6 "obj" 1. obj

let test_simplex_rejects_free_vars () =
  let lp = Lp.create () in
  let _ = Lp.add_var lp ~lb:neg_infinity "x" in
  Lp.set_objective lp (Lp.Minimize []);
  Alcotest.check_raises "free vars unsupported"
    (Invalid_argument "Simplex: variables must have finite lower bounds") (fun () ->
      ignore (Simplex.solve_relaxation lp))

(* ----------------------------------------------------------------- mip --- *)

let test_mip_knapsack () =
  (* max 5a + 4b + 3c s.t. 2a + 3b + c <= 4, binaries -> a=1, c=1, obj 8
     (b too heavy with a). *)
  let lp = Lp.create () in
  let a = Lp.add_var lp ~kind:Lp.Binary "a" in
  let b = Lp.add_var lp ~kind:Lp.Binary "b" in
  let c = Lp.add_var lp ~kind:Lp.Binary "c" in
  Lp.add_constr lp ~name:"w" [ (2., a); (3., b); (1., c) ] Lp.Le 4.;
  Lp.set_objective lp (Lp.Maximize [ (5., a); (4., b); (3., c) ]);
  (* Mip minimises: negate through Maximize support in Simplex; Mip compares
     objective values as reported by the relaxation, which follows the model
     objective.  Use an equivalent minimisation. *)
  let lp2 = Lp.create () in
  let a2 = Lp.add_var lp2 ~kind:Lp.Binary "a" in
  let b2 = Lp.add_var lp2 ~kind:Lp.Binary "b" in
  let c2 = Lp.add_var lp2 ~kind:Lp.Binary "c" in
  Lp.add_constr lp2 ~name:"w" [ (2., a2); (3., b2); (1., c2) ] Lp.Le 4.;
  Lp.set_objective lp2 (Lp.Minimize [ (-5., a2); (-4., b2); (-3., c2) ]);
  let sol = Mip.solve lp2 in
  check_bool "optimal" true (sol.Mip.status = Mip.Optimal);
  (match sol.Mip.incumbent with
  | Some (x, obj) ->
    check_float_eps 1e-6 "objective" (-8.) obj;
    check_float_eps 1e-6 "a" 1. x.(a2);
    check_float_eps 1e-6 "b" 0. x.(b2);
    check_float_eps 1e-6 "c" 1. x.(c2)
  | None -> Alcotest.fail "no incumbent");
  ignore (a, b, c, lp)

let test_mip_integer_rounding () =
  (* min y s.t. y >= 1.5, y integer -> 2. *)
  let lp = Lp.create () in
  let y = Lp.add_var lp ~ub:10. ~kind:Lp.General_integer "y" in
  Lp.add_constr lp ~name:"a" [ (1., y) ] Lp.Ge 1.5;
  Lp.set_objective lp (Lp.Minimize [ (1., y) ]);
  let sol = Mip.solve lp in
  (match sol.Mip.incumbent with
  | Some (_, obj) -> check_float_eps 1e-6 "rounded up" 2. obj
  | None -> Alcotest.fail "no incumbent")

let test_mip_infeasible () =
  let lp = Lp.create () in
  let y = Lp.add_var lp ~ub:1. ~kind:Lp.Binary "y" in
  Lp.add_constr lp ~name:"a" [ (1., y) ] Lp.Ge 0.25;
  Lp.add_constr lp ~name:"b" [ (1., y) ] Lp.Le 0.75;
  Lp.set_objective lp (Lp.Minimize [ (1., y) ]);
  check_bool "no integral point" true ((Mip.solve lp).Mip.status = Mip.Infeasible)

let test_mip_incumbent_prunes () =
  (* Seeding an incumbent below the optimum proves nothing better exists. *)
  let lp = Lp.create () in
  let y = Lp.add_var lp ~ub:10. ~kind:Lp.General_integer "y" in
  Lp.add_constr lp ~name:"a" [ (1., y) ] Lp.Ge 3.;
  Lp.set_objective lp (Lp.Minimize [ (1., y) ]);
  let sol = Mip.solve ~incumbent:2.5 lp in
  check_bool "pruned everything" true (sol.Mip.incumbent = None)

let test_mip_bounds_restored () =
  let lp = Lp.create () in
  let y = Lp.add_var lp ~ub:10. ~kind:Lp.General_integer "y" in
  Lp.add_constr lp ~name:"a" [ (1., y) ] Lp.Ge 1.5;
  Lp.set_objective lp (Lp.Minimize [ (1., y) ]);
  ignore (Mip.solve lp);
  check_float "lb restored" 0. (Lp.var lp y).Lp.lb;
  check_float "ub restored" 10. (Lp.var lp y).Lp.ub

(* ----------------------------------------------------------- lp_format --- *)

let test_lp_format_sections () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:2. "x" in
  let b = Lp.add_var lp ~kind:Lp.Binary "flag" in
  let k = Lp.add_var lp ~lb:1. ~ub:4. ~kind:Lp.General_integer "p 1" in
  Lp.add_constr lp ~name:"cap" [ (1., x); (2., b); (1., k) ] Lp.Le 5.;
  Lp.set_objective lp (Lp.Minimize [ (1., x) ]);
  let out = Lp_format.to_string lp in
  check_bool "minimize" true (contains "Minimize" out);
  check_bool "subject to" true (contains "Subject To" out);
  check_bool "bounds" true (contains "Bounds" out);
  check_bool "binaries" true (contains "Binaries" out);
  check_bool "generals" true (contains "Generals" out);
  check_bool "end" true (contains "End" out);
  check_bool "sanitised name" true (contains "p_1" out);
  check_bool "no raw space name" false (contains "p 1" out)

let test_lp_format_sanitize () =
  check_string "spaces" "a_b" (Lp_format.sanitize "a b");
  check_string "empty" "v" (Lp_format.sanitize "")

let test_lp_format_write () =
  let lp = Lp.create () in
  let _ = Lp.add_var lp "x" in
  Lp.set_objective lp (Lp.Minimize []);
  let path = Filename.concat (Filename.get_temp_dir_name ()) "memsched_test.lp" in
  Lp_format.write lp path;
  check_bool "file exists" true (Sys.file_exists path)

(* ------------------------------------------------------------- lp_parse --- *)

let test_lp_parse_simple () =
  let text =
    "\\ comment\nMinimize\n obj: 2 x + 3 y\nSubject To\n c1: x + y >= 2\n c2: x - y <= 1\n\
     Bounds\n 0 <= x <= 10\n y <= 5\nEnd\n"
  in
  let lp = Lp_parse.of_string text in
  check_int "vars" 2 (Lp.n_vars lp);
  check_int "constrs" 2 (Lp.n_constrs lp);
  match Simplex.solve_relaxation lp with
  | Simplex.Optimal { obj; _ } -> check_float_eps 1e-6 "optimum" 4.5 obj
  | _ -> Alcotest.fail "should solve"

let test_lp_parse_sections () =
  let text =
    "Maximize\n obj: x + y + z\nSubject To\n c: x + y + z <= 2\nBounds\n z <= 5\n\
     Binaries\n x\n y\nGenerals\n z\nEnd\n"
  in
  let lp = Lp_parse.of_string text in
  let kind_of name =
    let rec find i =
      if i >= Lp.n_vars lp then Alcotest.failf "var %s missing" name
      else if (Lp.var lp i).Lp.vname = name then (Lp.var lp i).Lp.kind
      else find (i + 1)
    in
    find 0
  in
  check_bool "x binary" true (kind_of "x" = Lp.Binary);
  check_bool "z integer" true (kind_of "z" = Lp.General_integer)

let test_lp_parse_negative_rhs_and_free () =
  let text = "Minimize\n obj: x\nSubject To\n c: x >= - 3\nBounds\n x free\nEnd\n" in
  let lp = Lp_parse.of_string text in
  check_float "free lb" neg_infinity (Lp.var lp 0).Lp.lb;
  check_float "rhs sign" (-3.) (Lp.constrs lp).(0).Lp.rhs

let test_lp_parse_rejects () =
  let bad text = try ignore (Lp_parse.of_string text); false with Invalid_argument _ -> true in
  check_bool "garbage" true (bad "x + y <= 1\n");
  check_bool "relation in objective" true (bad "Minimize\n x <= 1\nEnd\n")

(* Round-trip: the paper's ILP for the toy chain survives write -> parse with
   the same optimum. *)
let test_lp_roundtrip_ilp () =
  let g = Toy.chain ~n:2 ~w:2. ~f:1. ~c:1. in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:3. ~m_red:3. in
  let model = Ilp_model.build g p in
  let lp2 = Lp_parse.of_string (Lp_format.to_string (Ilp_model.lp model)) in
  check_int "vars preserved" (Lp.n_vars (Ilp_model.lp model)) (Lp.n_vars lp2);
  check_int "constrs preserved" (Lp.n_constrs (Ilp_model.lp model)) (Lp.n_constrs lp2);
  let a = Mip.solve ~node_limit:5_000 ~time_limit:60. (Ilp_model.lp model) in
  let b = Mip.solve ~node_limit:5_000 ~time_limit:60. lp2 in
  match (a.Mip.incumbent, b.Mip.incumbent) with
  | Some (_, oa), Some (_, ob) -> check_float_eps 1e-6 "same optimum" oa ob
  | _ -> Alcotest.fail "both should solve"

(* ----------------------------------------------------------- ilp_model --- *)

let test_ilp_sizes () =
  let g = Toy.chain ~n:3 ~w:2. ~f:1. ~c:1. in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:4. ~m_red:4. in
  let model = Ilp_model.build g p in
  check_int "variables" 100 (Ilp_model.n_vars model);
  check_int "constraints" 257 (Ilp_model.n_constrs model);
  check_float "mmax" (12. +. 2.) (Ilp_model.mmax model)

let test_ilp_rejects_unbounded () =
  let g = Toy.dex () in
  let p = Platform.unbounded ~p_blue:1 ~p_red:1 in
  Alcotest.check_raises "needs finite capacities"
    (Invalid_argument "Ilp_model.build: memory capacities must be finite") (fun () ->
      ignore (Ilp_model.build g p))

(* The single-task ILP is solvable by pure LP reasoning: the task runs on the
   faster resource at time 0. *)
let test_ilp_single_task () =
  let b = Dag.Builder.create () in
  let _ = Dag.Builder.add_task b ~name:"solo" ~w_blue:5. ~w_red:2. () in
  let g = Dag.Builder.finalize b in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:1. ~m_red:1. in
  let model = Ilp_model.build g p in
  let sol = Mip.solve ~node_limit:1_000 (Ilp_model.lp model) in
  (match sol.Mip.incumbent with
  | Some (x, obj) ->
    check_float_eps 1e-6 "runs on the red resource" 2. obj;
    let s = Ilp_model.extract_schedule model x in
    let r = validate_ok g p s in
    check_float "validated makespan" 2. r.Validator.makespan
  | None -> Alcotest.fail "no incumbent")

(* MIP on the 2-task chain agrees with the exact scheduler and validates. *)
let test_ilp_chain2_matches_exact () =
  let g = Toy.chain ~n:2 ~w:2. ~f:1. ~c:1. in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:3. ~m_red:3. in
  let model = Ilp_model.build g p in
  let sol = Mip.solve ~node_limit:5_000 ~time_limit:60. (Ilp_model.lp model) in
  let exact = Exact.solve g p in
  check_bool "exact proved" true (exact.Exact.status = Exact.Proven_optimal);
  match sol.Mip.incumbent with
  | Some (x, obj) ->
    check_float_eps 1e-6 "same optimum" exact.Exact.makespan obj;
    let s = Ilp_model.extract_schedule model x in
    ignore (validate_ok g p s)
  | None -> Alcotest.fail "MIP found nothing"

let test_ilp_presolve_consistent () =
  (* Presolve must not change the optimum. *)
  let g = Toy.chain ~n:2 ~w:1. ~f:1. ~c:1. in
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:3. ~m_red:3. in
  let with_presolve = Mip.solve ~time_limit:60. (Ilp_model.lp (Ilp_model.build ~presolve:true g p)) in
  let without = Mip.solve ~time_limit:60. (Ilp_model.lp (Ilp_model.build ~presolve:false g p)) in
  match (with_presolve.Mip.incumbent, without.Mip.incumbent) with
  | Some (_, a), Some (_, b) -> check_float_eps 1e-6 "same optimum" a b
  | _ -> Alcotest.fail "both should solve"

(* --------------------------------------------------------------- exact --- *)

let dex = Toy.dex ()
let dex_platform m = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:m ~m_red:m

let test_exact_dex_paper_values () =
  (* SS 3.3: at M = 5 the optimum is s1 (makespan 6); at M = 4 it is s2
     (makespan 7); at M = 3 no schedule exists. *)
  let r5 = Exact.solve dex (dex_platform 5.) in
  check_bool "M=5 proven" true (r5.Exact.status = Exact.Proven_optimal);
  check_float "M=5 makespan" 6. r5.Exact.makespan;
  let r4 = Exact.solve dex (dex_platform 4.) in
  check_bool "M=4 proven" true (r4.Exact.status = Exact.Proven_optimal);
  check_float "M=4 makespan" 7. r4.Exact.makespan;
  let r3 = Exact.solve dex (dex_platform 3.) in
  check_bool "M=3 infeasible" true (r3.Exact.status = Exact.Proven_infeasible)

let test_exact_schedule_validates () =
  let p = dex_platform 4. in
  match (Exact.solve dex p).Exact.schedule with
  | Some s ->
    let r = validate_ok dex p s in
    check_float "makespan" 7. r.Validator.makespan
  | None -> Alcotest.fail "expected schedule"

let test_exact_node_budget () =
  let r = Exact.solve ~node_limit:2 dex (dex_platform 5.) in
  check_bool "budget respected" true (r.Exact.nodes <= 2);
  check_bool "not proven" true
    (r.Exact.status = Exact.Feasible || r.Exact.status = Exact.Unknown)

let exact_dominates_heuristics =
  qtest ~count:15 "exact <= heuristics, >= lower bound"
    QCheck.(int_range 0 500)
    (fun seed ->
      let g = dag_of_seed ~size:8 seed in
      let p0 = Platform.unbounded ~p_blue:2 ~p_red:2 in
      let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g p0) in
      let p = Platform.with_bounds p0 ~m_blue:(0.8 *. peak) ~m_red:(0.8 *. peak) in
      match Exact.solve ~node_limit:500_000 g p with
      | { Exact.status = Exact.Proven_optimal; makespan; _ } ->
        makespan +. 1e-6 >= Lower_bound.makespan g p
        && List.for_all
             (fun h ->
               let o = Outcome.run h g p in
               (not o.Outcome.feasible) || o.Outcome.makespan +. 1e-6 >= makespan)
             [ Heuristics.MemHEFT; Heuristics.MemMinMin ]
      | _ -> true (* budget exceeded: nothing to check *))

let exact_schedules_validate =
  qtest ~count:15 "exact schedules pass the oracle" QCheck.(int_range 0 500) (fun seed ->
      let g = dag_of_seed ~size:8 seed in
      let p0 = Platform.unbounded ~p_blue:2 ~p_red:2 in
      let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g p0) in
      let p = Platform.with_bounds p0 ~m_blue:(0.7 *. peak) ~m_red:(0.7 *. peak) in
      match (Exact.solve ~node_limit:500_000 g p).Exact.schedule with
      | Some s -> Result.is_ok (Validator.validate g p s)
      | None -> true)

(* A provably infeasible cap, mirroring lib/check Fuzz_gen's "below-min"
   platform regime: no single-memory placement of the widest task fits. *)
let test_exact_proven_infeasible () =
  let g = dag_of_seed ~size:8 7 in
  let m = 0.99 *. Lower_bound.min_memory g in
  let p = Platform.make ~p_blue:2 ~p_red:2 ~m_blue:m ~m_red:m in
  let r = Exact.solve g p in
  check_bool "infeasible" true (r.Exact.status = Exact.Proven_infeasible);
  check_bool "nan makespan" true (Float.is_nan r.Exact.makespan);
  check_float "bound is infinity" infinity r.Exact.best_bound;
  let rr = Exact.solve_reference g p in
  check_bool "reference agrees" true (rr.Exact.status = Exact.Proven_infeasible)

(* Under a tiny node budget the status depends on whether the heuristics
   seeded an incumbent: Feasible with the seed, Unknown without. *)
let test_exact_feasible_vs_unknown () =
  let p = dex_platform 5. in
  let seeded = Exact.solve ~node_limit:2 dex p in
  check_bool "seeded: Feasible" true (seeded.Exact.status = Exact.Feasible);
  check_bool "seeded: has schedule" true (Option.is_some seeded.Exact.schedule);
  let blind = Exact.solve ~node_limit:2 ~seed_incumbent:false dex p in
  check_bool "unseeded: Unknown" true (blind.Exact.status = Exact.Unknown);
  check_bool "unseeded: nan makespan" true (Float.is_nan blind.Exact.makespan)

(* best_bound: certified runs close the gap, capped runs report a bound no
   larger than the incumbent. *)
let test_exact_best_bound () =
  let proven = Exact.solve dex (dex_platform 4.) in
  check_float "proven: gap closed" proven.Exact.makespan proven.Exact.best_bound;
  let capped = Exact.solve ~node_limit:3 dex (dex_platform 5.) in
  check_bool "capped status" true (capped.Exact.status = Exact.Feasible);
  check_bool "bound below incumbent" true
    (capped.Exact.best_bound <= capped.Exact.makespan +. 1e-9);
  check_bool "bound nonnegative" true (capped.Exact.best_bound >= 0.)

let bits f = Int64.bits_of_float f

(* The full solver (dominance pruning + frontier decomposition) agrees with
   the reference whenever both certify: pruning must never change the
   certified optimum or flip feasibility. *)
let exact_dominance_agrees_with_reference =
  qtest ~count:30 "dominance/frontier solver agrees when both certify"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = dag_of_seed ~size:7 seed in
      let p0 = Platform.unbounded ~p_blue:2 ~p_red:1 in
      let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g p0) in
      let p = Platform.with_bounds p0 ~m_blue:(0.75 *. peak) ~m_red:(0.75 *. peak) in
      let r = Exact.solve_reference ~node_limit:60_000 g p in
      let o = Exact.solve ~node_limit:60_000 g p in
      match (r.Exact.status, o.Exact.status) with
      | Exact.Proven_optimal, Exact.Proven_optimal ->
        Float.abs (r.Exact.makespan -. o.Exact.makespan) <= 1e-6
      | Exact.Proven_infeasible, s -> s = Exact.Proven_infeasible
      | s, Exact.Proven_infeasible -> s = Exact.Proven_infeasible
      | _ -> true)

(* The parallel decomposition is jobs-invariant by construction: pool absent,
   a 1-job pool and multi-job pools return identical results, including node
   counts. *)
let exact_same_for_jobs ~node_limit ~jobs g p =
  let serial = Exact.solve ~node_limit g p in
  let same (a : Exact.result) (b : Exact.result) =
    a.Exact.status = b.Exact.status
    && Int64.equal (bits a.Exact.makespan) (bits b.Exact.makespan)
    && Int64.equal (bits a.Exact.best_bound) (bits b.Exact.best_bound)
    && a.Exact.nodes = b.Exact.nodes
  in
  List.for_all
    (fun jobs ->
      same serial (Par.with_pool ~jobs (fun pool -> Exact.solve ~pool ~node_limit g p)))
    jobs

(* Fixed cases first: tiled LU and Cholesky (n=6) on the mirage platform
   capped at 0.7x HEFT's peak, and a width-8 fork-join, at a 2 000-node
   budget over jobs 1/2/8.  Then random 7-task DAGs at 0.8x the peak. *)
let exact_jobs_invariant =
  let fixed () =
    let capped g p0 =
      let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g p0) in
      (g, Platform.with_bounds p0 ~m_blue:(0.7 *. peak) ~m_red:(0.7 *. peak))
    in
    [ ("lu n=6", capped (Workloads.lu ~n:6 ()) Workloads.platform_mirage);
      ("cholesky n=6", capped (Workloads.cholesky ~n:6 ()) Workloads.platform_mirage);
      ("fork_join width 8",
       (Toy.fork_join ~width:8 ~w:1. ~f:1. ~c:1.,
        Platform.make ~p_blue:2 ~p_red:1 ~m_blue:8. ~m_red:8.)) ]
  in
  let name, speed, random =
    qtest ~count:10 "exact solve is jobs-invariant"
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let g = dag_of_seed ~size:7 seed in
        let p0 = Platform.unbounded ~p_blue:2 ~p_red:2 in
        let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g p0) in
        let p = Platform.with_bounds p0 ~m_blue:(0.8 *. peak) ~m_red:(0.8 *. peak) in
        exact_same_for_jobs ~node_limit:20_000 ~jobs:[ 1; 2; 4 ] g p)
  in
  ( name,
    speed,
    fun () ->
      List.iter
        (fun (case, (g, p)) ->
          check_bool case true (exact_same_for_jobs ~node_limit:2_000 ~jobs:[ 1; 2; 8 ] g p))
        (fixed ());
      random () )

(* MD5 pins of both solvers' (status, makespan bits, best-bound bits, nodes)
   on the fixed cases of "exact solve is jobs-invariant" at 2 000 nodes and
   on 20 random 7-task seeds at 0.8x HEFT's peak and 20 000 nodes: any
   change to the candidate order, a pruning decision or an estimate bit
   moves a node count or a makespan bit.  Each case is (name, node budget,
   instances, [solve] pin, [solve_reference] pin). *)
let exact_pin_cases () =
  let capped alpha g p0 =
    let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g p0) in
    (g, Platform.with_bounds p0 ~m_blue:(alpha *. peak) ~m_red:(alpha *. peak))
  in
  [ ("lu n=6", 2_000, [ capped 0.7 (Workloads.lu ~n:6 ()) Workloads.platform_mirage ],
     "b98f2afff7435d5474cbe252e235aafd", "823822a1755519103b2d1d50faa6f153");
    ("cholesky n=6", 2_000, [ capped 0.7 (Workloads.cholesky ~n:6 ()) Workloads.platform_mirage ],
     "877c9b951185911d5c78ee2f7523d86f", "20580d081c7b4f1e64b945bd4cb60499");
    ("fork_join width 8", 2_000,
     [ (Toy.fork_join ~width:8 ~w:1. ~f:1. ~c:1., Platform.make ~p_blue:2 ~p_red:1 ~m_blue:8. ~m_red:8.) ],
     "f2df325472b269795d68fc79a85824c7", "a1d437a8acb63cbbbbdcadf3c4df1417");
    ("random 7-task seeds 0-19", 20_000,
     List.init 20 (fun seed ->
         capped 0.8 (dag_of_seed ~size:7 seed) (Platform.unbounded ~p_blue:2 ~p_red:2)),
     "83b487d8ac188a423af11709f9611ece", "420385bc0374fdee055f138bd53cdc31") ]

let exact_pin_digest solve instances =
  let b = Buffer.create 256 in
  List.iter
    (fun (g, p) ->
      let r : Exact.result = solve g p in
      let status =
        match r.Exact.status with
        | Exact.Proven_optimal -> "optimal"
        | Exact.Feasible -> "feasible"
        | Exact.Proven_infeasible -> "infeasible"
        | Exact.Unknown -> "unknown"
      in
      Printf.bprintf b "%s %Lx %Lx %d\n" status (bits r.Exact.makespan) (bits r.Exact.best_bound)
        r.Exact.nodes)
    instances;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_exact_pins () =
  List.iter
    (fun (case, node_limit, instances, solve_pin, reference_pin) ->
      check_string (case ^ ": solve") solve_pin
        (exact_pin_digest (fun g p -> Exact.solve ~node_limit g p) instances);
      check_string (case ^ ": solve_reference") reference_pin
        (exact_pin_digest (fun g p -> Exact.solve_reference ~node_limit g p) instances))
    (exact_pin_cases ())

(* ---------------------------------------------------------- properties --- *)

(* Random small LP whose text form round-trips exactly: integer-valued
   coefficients, bounds and right-hand sides (so "%g" printing is lossless),
   every variable appearing in the objective (so the parser recreates them in
   creation order), and no zero coefficients (the normaliser drops those). *)
let random_roundtrip_lp seed =
  let rng = Rng.create seed in
  let lp = Lp.create () in
  let nonzero () =
    let c = float_of_int (1 + Rng.int rng 5) in
    if Rng.bool rng then c else -.c
  in
  let n = 1 + Rng.int rng 4 in
  let vars =
    List.init n (fun k ->
        let name = Printf.sprintf "x%d" k in
        match Rng.int rng 3 with
        | 0 -> Lp.add_var lp ~kind:Lp.Binary name
        | 1 -> Lp.add_var lp ~lb:(float_of_int (Rng.int rng 3)) ~kind:Lp.General_integer name
        | _ ->
          let lb = float_of_int (Rng.int rng 3) in
          let ub =
            if Rng.bool rng then infinity else lb +. float_of_int (1 + Rng.int rng 6)
          in
          Lp.add_var lp ~lb ~ub name)
  in
  let obj = List.map (fun v -> (nonzero (), v)) vars in
  Lp.set_objective lp (if Rng.bool rng then Lp.Minimize obj else Lp.Maximize obj);
  let nc = Rng.int rng 4 in
  for c = 0 to nc - 1 do
    let terms =
      List.filter_map (fun v -> if Rng.bool rng then Some (nonzero (), v) else None) vars
    in
    let terms = if terms = [] then [ (nonzero (), List.hd vars) ] else terms in
    let sense = [| Lp.Le; Lp.Ge; Lp.Eq |].(Rng.int rng 3) in
    Lp.add_constr lp
      ~name:(Printf.sprintf "row%d" c)
      terms sense
      (float_of_int (Rng.int_incl rng (-5) 10))
  done;
  lp

let lp_roundtrip_property =
  qtest ~count:300 "random LPs round-trip through write/parse" seed_arb (fun seed ->
      let lp = random_roundtrip_lp seed in
      let lp' = Lp_parse.of_string (Lp_format.to_string lp) in
      let var_eq (a : Lp.var) (b : Lp.var) =
        a.Lp.vname = b.Lp.vname && a.Lp.lb = b.Lp.lb && a.Lp.ub = b.Lp.ub
        && a.Lp.kind = b.Lp.kind
      in
      (* The writer uniquifies constraint names by suffixing the row index. *)
      let constr_eq k (a : Lp.constr) (b : Lp.constr) =
        b.Lp.cname = Printf.sprintf "%s_%d" a.Lp.cname k
        && compare a.Lp.terms b.Lp.terms = 0
        && a.Lp.sense = b.Lp.sense && a.Lp.rhs = b.Lp.rhs
      in
      let constrs = Lp.constrs lp and constrs' = Lp.constrs lp' in
      let obj_eq =
        match (Lp.objective lp, Lp.objective lp') with
        | Lp.Minimize a, Lp.Minimize b | Lp.Maximize a, Lp.Maximize b -> compare a b = 0
        | _ -> false
      in
      Lp.n_vars lp = Lp.n_vars lp'
      && Array.for_all2 var_eq (Lp.vars lp) (Lp.vars lp')
      && Array.length constrs = Array.length constrs'
      && List.for_all
           (fun k -> constr_eq k constrs.(k) constrs'.(k))
           (List.init (Array.length constrs) Fun.id)
      && obj_eq)

(* Warm-started node LPs are a pure optimisation: on random small MILPs the
   warm and cold modes must reach the same proven verdict, and the same
   optimum up to LP-solver rounding (the dual simplex may stop at a
   different optimal vertex, so bit-equality is not required and the two
   modes may even explore differently shaped trees). *)
let mip_warm_matches_cold =
  qtest ~count:60 "warm-started MIP == cold MIP (proven status, objective)" seed_arb
    (fun seed ->
      let lp = random_roundtrip_lp seed in
      let limit = 2_000 in
      let cold = Mip.solve ~node_limit:limit ~warm_start:false lp in
      let warm = Mip.solve ~node_limit:limit ~warm_start:true lp in
      if cold.Mip.nodes >= limit || warm.Mip.nodes >= limit then true
      else
        match (cold.Mip.status, warm.Mip.status) with
        | Mip.Optimal, Mip.Optimal -> (
          match (cold.Mip.incumbent, warm.Mip.incumbent) with
          | Some (_, a), Some (_, b) -> Float.abs (a -. b) <= 1e-6 *. (1. +. Float.abs a)
          | _ -> false)
        | Mip.Infeasible, Mip.Infeasible -> true
        | (Mip.Optimal | Mip.Infeasible), (Mip.Optimal | Mip.Infeasible) -> false
        | _ -> true)

(* Gaussian elimination with partial pivoting on a tiny dense system;
   [None] when (numerically) singular. *)
let solve_linear a b =
  let n = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  let x = Array.make n 0. in
  let ok = ref true in
  for col = 0 to n - 1 do
    if !ok then begin
      let piv = ref col in
      for r = col + 1 to n - 1 do
        if abs_float a.(r).(col) > abs_float a.(!piv).(col) then piv := r
      done;
      if abs_float a.(!piv).(col) < 1e-9 then ok := false
      else begin
        let tmp = a.(col) in
        a.(col) <- a.(!piv);
        a.(!piv) <- tmp;
        let tb = b.(col) in
        b.(col) <- b.(!piv);
        b.(!piv) <- tb;
        for r = col + 1 to n - 1 do
          let f = a.(r).(col) /. a.(col).(col) in
          for c = col to n - 1 do
            a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
          done;
          b.(r) <- b.(r) -. (f *. b.(col))
        done
      end
    end
  done;
  if not !ok then None
  else begin
    for r = n - 1 downto 0 do
      let s = ref b.(r) in
      for c = r + 1 to n - 1 do
        s := !s -. (a.(r).(c) *. x.(c))
      done;
      x.(r) <- !s /. a.(r).(r)
    done;
    Some x
  end

let rec subsets k lst =
  if k = 0 then [ [] ]
  else
    match lst with
    | [] -> []
    | hd :: tl -> List.map (fun c -> hd :: c) (subsets (k - 1) tl) @ subsets k tl

(* Exhaustive vertex check: on a box-bounded LP with <= rows and rhs >= 0
   (so the origin is feasible and the feasible region is a bounded polytope),
   the optimum lies at a vertex, and every vertex is the intersection of n
   active hyperplanes drawn from the rows and the box faces.  Brute-forcing
   all n-subsets must reproduce the simplex objective. *)
let simplex_matches_vertex_enumeration =
  qtest ~count:300 "simplex optimum = best vertex (<= 3 vars)" seed_arb (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 3 in
      let ub = Array.init n (fun _ -> float_of_int (1 + Rng.int rng 5)) in
      let lp = Lp.create () in
      let vars = Array.init n (fun k -> Lp.add_var lp ~ub:ub.(k) (Printf.sprintf "x%d" k)) in
      let nrows = 1 + Rng.int rng 3 in
      let rows =
        List.init nrows (fun c ->
            let coeffs = Array.init n (fun _ -> float_of_int (Rng.int_incl rng (-2) 3)) in
            if Array.for_all (fun a -> Float.equal a 0.) coeffs then coeffs.(0) <- 1.;
            let rhs = float_of_int (Rng.int rng 8) in
            Lp.add_constr lp
              ~name:(Printf.sprintf "r%d" c)
              (Array.to_list (Array.mapi (fun k a -> (a, vars.(k))) coeffs))
              Lp.Le rhs;
            (coeffs, rhs))
      in
      let cobj = Array.init n (fun _ -> float_of_int (Rng.int_incl rng (-3) 4)) in
      Lp.set_objective lp
        (Lp.Maximize (Array.to_list (Array.mapi (fun k c -> (c, vars.(k))) cobj)));
      let planes =
        rows
        @ List.concat
            (List.init n (fun k ->
                 let unit = Array.init n (fun j -> if j = k then 1. else 0.) in
                 [ (unit, 0.); (unit, ub.(k)) ]))
      in
      let dot a x =
        let s = ref 0. in
        Array.iteri (fun k ak -> s := !s +. (ak *. x.(k))) a;
        !s
      in
      let feasible x =
        Array.for_all2 (fun v u -> v >= -1e-7 && v <= u +. 1e-7) x ub
        && List.for_all (fun (a, b) -> dot a x <= b +. 1e-7) rows
      in
      let best = ref neg_infinity in
      List.iter
        (fun sel ->
          let a = Array.of_list (List.map fst sel) in
          let b = Array.of_list (List.map snd sel) in
          match solve_linear a b with
          | Some x when feasible x ->
            let v = dot cobj x in
            if v > !best then best := v
          | _ -> ())
        (subsets n planes);
      match Simplex.solve_relaxation lp with
      | Simplex.Optimal { obj; _ } ->
        abs_float (obj -. !best) <= 1e-6 *. (1. +. abs_float !best)
      | _ -> false)

let () =
  Alcotest.run "ilp"
    [ ( "lp",
        [ Alcotest.test_case "build" `Quick test_lp_build;
          Alcotest.test_case "normalise terms" `Quick test_lp_normalizes_terms;
          Alcotest.test_case "violations" `Quick test_lp_violations;
          Alcotest.test_case "integer violation" `Quick test_lp_integer_violation;
          Alcotest.test_case "fix/override" `Quick test_lp_fix_and_override ] );
      ( "simplex",
        [ Alcotest.test_case "basic max" `Quick test_simplex_basic;
          Alcotest.test_case "equality and >=" `Quick test_simplex_equality_and_ge;
          Alcotest.test_case "bounds" `Quick test_simplex_bounds;
          Alcotest.test_case "fixed vars substituted" `Quick test_simplex_fixed_vars_substituted;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
          Alcotest.test_case "rejects free vars" `Quick test_simplex_rejects_free_vars ] );
      ( "mip",
        [ Alcotest.test_case "knapsack" `Quick test_mip_knapsack;
          Alcotest.test_case "integer rounding" `Quick test_mip_integer_rounding;
          Alcotest.test_case "infeasible" `Quick test_mip_infeasible;
          Alcotest.test_case "incumbent prunes" `Quick test_mip_incumbent_prunes;
          Alcotest.test_case "bounds restored" `Quick test_mip_bounds_restored ] );
      ( "lp_format",
        [ Alcotest.test_case "sections" `Quick test_lp_format_sections;
          Alcotest.test_case "sanitize" `Quick test_lp_format_sanitize;
          Alcotest.test_case "write" `Quick test_lp_format_write ] );
      ( "lp_parse",
        [ Alcotest.test_case "simple model" `Quick test_lp_parse_simple;
          Alcotest.test_case "sections" `Quick test_lp_parse_sections;
          Alcotest.test_case "negative rhs / free" `Quick test_lp_parse_negative_rhs_and_free;
          Alcotest.test_case "rejects" `Quick test_lp_parse_rejects;
          Alcotest.test_case "ILP roundtrip" `Slow test_lp_roundtrip_ilp ] );
      ( "ilp_model",
        [ Alcotest.test_case "sizes" `Quick test_ilp_sizes;
          Alcotest.test_case "rejects unbounded" `Quick test_ilp_rejects_unbounded;
          Alcotest.test_case "single task" `Quick test_ilp_single_task;
          Alcotest.test_case "chain2 matches exact" `Slow test_ilp_chain2_matches_exact;
          Alcotest.test_case "presolve consistent" `Slow test_ilp_presolve_consistent ] );
      ( "exact",
        [ Alcotest.test_case "dex paper values" `Quick test_exact_dex_paper_values;
          Alcotest.test_case "schedule validates" `Quick test_exact_schedule_validates;
          Alcotest.test_case "node budget" `Quick test_exact_node_budget;
          exact_dominates_heuristics;
          exact_schedules_validate;
          Alcotest.test_case "proven infeasible" `Quick test_exact_proven_infeasible;
          Alcotest.test_case "feasible vs unknown" `Quick test_exact_feasible_vs_unknown;
          Alcotest.test_case "best bound" `Quick test_exact_best_bound;
          exact_dominance_agrees_with_reference;
          exact_jobs_invariant;
          Alcotest.test_case "pinned results of solve and solve_reference" `Quick test_exact_pins ] );
      ("property",
        [ lp_roundtrip_property; mip_warm_matches_cold; simplex_matches_vertex_enumeration ]) ]
