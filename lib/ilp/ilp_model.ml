type t = {
  lp : Lp.t;
  g : Dag.t;
  platform : Platform.t;
  mmax : float;
  v_m : int;
  v_t : int array;  (* per task *)
  v_tau : int array;  (* per edge *)
  v_p : int array;
  v_b : int array;
  v_w : int array;
  v_eps : int array array;  (* [i][j], i<>j; diagonal = -1 *)
  v_delta : int array array;  (* [i][j], all pairs *)
  v_sigma : int array array;  (* [i][j], all pairs *)
  v_m2 : int array array;  (* m_ij, all pairs *)
  v_msig' : int array array;  (* sigma'_kij: [k][edge] *)
  v_m' : int array array;  (* m'_kij: [k][edge] *)
  v_c : int array array;  (* c_ijk: [edge][k] *)
  v_d : int array array;  (* d_ijk: [edge][k] *)
  v_c' : int array array;  (* c'_ijkp: [edge ij][edge kp] *)
  v_d' : int array array;  (* d'_ijkp *)
}

let lp t = t.lp
let n_vars t = Lp.n_vars t.lp
let n_constrs t = Lp.n_constrs t.lp
let mmax t = t.mmax

(* Transitive ancestor relation: reach.(i).(j) = true when i is a strict
   ancestor of j. *)
let ancestors g =
  let n = Dag.n_tasks g in
  let reach = Array.make_matrix n n false in
  let topo = Dag.topological_order g in
  let off = Dag.Csr.succ_off g and dst = Dag.Csr.succ_dst g in
  for k = Array.length topo - 1 downto 0 do
    let i = topo.(k) in
    for p = off.(i) to off.(i + 1) - 1 do
      let c = dst.(p) in
      reach.(i).(c) <- true;
      for j = 0 to n - 1 do
        if reach.(c).(j) then reach.(i).(j) <- true
      done
    done
  done;
  reach

let build ?(presolve = true) g platform =
  let mblue = Platform.capacity platform Platform.Blue in
  let mred = Platform.capacity platform Platform.Red in
  if Float.equal mblue infinity || Float.equal mred infinity then
    invalid_arg "Ilp_model.build: memory capacities must be finite";
  let n = Dag.n_tasks g in
  let m = Dag.n_edges g in
  let p1 = Platform.n_procs_of platform Platform.Blue in
  let p = Platform.n_procs platform in
  let lp = Lp.create () in
  let mmax =
    Array.fold_left (fun acc (t : Dag.task) -> acc +. t.Dag.w_blue +. t.Dag.w_red) 0. (Dag.tasks g)
    +. Array.fold_left (fun acc (e : Dag.edge) -> acc +. e.Dag.comm) 0. (Dag.edges g)
  in
  let bin name = Lp.add_var lp ~kind:Lp.Binary name in
  let cont ?(ub = infinity) name = Lp.add_var lp ~ub name in
  let v_m = cont ~ub:mmax "M" in
  let v_t = Array.init n (fun i -> cont ~ub:mmax (Printf.sprintf "t_%d" i)) in
  let v_tau = Array.init m (fun e -> cont ~ub:mmax (Printf.sprintf "tau_%d" e)) in
  let v_p =
    Array.init n (fun i ->
        Lp.add_var lp ~lb:1. ~ub:(float_of_int p) ~kind:Lp.General_integer
          (Printf.sprintf "p_%d" i))
  in
  let v_b = Array.init n (fun i -> bin (Printf.sprintf "b_%d" i)) in
  let v_w = Array.init n (fun i -> cont ~ub:mmax (Printf.sprintf "w_%d" i)) in
  let v_eps =
    Array.init n (fun i ->
        Array.init n (fun j -> if i = j then -1 else bin (Printf.sprintf "eps_%d_%d" i j)))
  in
  let v_delta =
    Array.init n (fun i -> Array.init n (fun j -> bin (Printf.sprintf "delta_%d_%d" i j)))
  in
  let v_sigma =
    Array.init n (fun i -> Array.init n (fun j -> bin (Printf.sprintf "sigma_%d_%d" i j)))
  in
  let v_m2 = Array.init n (fun i -> Array.init n (fun j -> bin (Printf.sprintf "m_%d_%d" i j))) in
  let v_msig' =
    Array.init n (fun k -> Array.init m (fun e -> bin (Printf.sprintf "sigmap_%d_e%d" k e)))
  in
  let v_m' =
    Array.init n (fun k -> Array.init m (fun e -> bin (Printf.sprintf "mp_%d_e%d" k e)))
  in
  let v_c = Array.init m (fun e -> Array.init n (fun k -> bin (Printf.sprintf "c_e%d_%d" e k))) in
  let v_d = Array.init m (fun e -> Array.init n (fun k -> bin (Printf.sprintf "d_e%d_%d" e k))) in
  let v_c' =
    Array.init m (fun e -> Array.init m (fun f -> bin (Printf.sprintf "cp_e%d_e%d" e f)))
  in
  let v_d' =
    Array.init m (fun e -> Array.init m (fun f -> bin (Printf.sprintf "dp_e%d_e%d" e f)))
  in
  let add name terms sense rhs = Lp.add_constr lp ~name terms sense rhs in
  let w1 i = (Dag.task g i).Dag.w_blue and w2 i = (Dag.task g i).Dag.w_red in
  let edges = Dag.edges g in
  (* Objective and (1). *)
  Lp.set_objective lp (Lp.Minimize [ (1., v_m) ]);
  for i = 0 to n - 1 do
    add "c1" [ (1., v_t.(i)); (1., v_w.(i)); (-1., v_m) ] Lp.Le 0.
  done;
  (* (2), (3): flow through transfers. *)
  Array.iter
    (fun (e : Dag.edge) ->
      let i = e.Dag.src and j = e.Dag.dst and k = e.Dag.eid in
      add "c2" [ (1., v_t.(i)); (1., v_w.(i)); (-1., v_tau.(k)) ] Lp.Le 0.;
      (* tau + (1 - delta_ij) C <= t_j *)
      add "c3"
        [ (1., v_tau.(k)); (-.e.Dag.comm, v_delta.(i).(j)); (-1., v_t.(j)) ]
        Lp.Le (-.e.Dag.comm))
    edges;
  (* (4): m_ij ordering of task starts; i <> j. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        add "c4a" [ (1., v_t.(j)); (-1., v_t.(i)); (-.mmax, v_m2.(i).(j)) ] Lp.Le 0.;
        add "c4b" [ (1., v_t.(j)); (-1., v_t.(i)); (-.mmax, v_m2.(i).(j)) ] Lp.Ge (-.mmax)
      end
    done
  done;
  (* (5): m'_kij vs transfer starts. *)
  for k = 0 to n - 1 do
    Array.iter
      (fun (e : Dag.edge) ->
        let idx = e.Dag.eid in
        add "c5a" [ (1., v_tau.(idx)); (-1., v_t.(k)); (-.mmax, v_m'.(k).(idx)) ] Lp.Le 0.;
        add "c5b" [ (1., v_tau.(idx)); (-1., v_t.(k)); (-.mmax, v_m'.(k).(idx)) ] Lp.Ge (-.mmax))
      edges
  done;
  (* (6): sigma_ij — i finishes before j starts; i <> j. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        add "c6a"
          [ (1., v_t.(j)); (-1., v_t.(i)); (-1., v_w.(i)); (-.mmax, v_sigma.(i).(j)) ]
          Lp.Le 0.;
        add "c6b"
          [ (1., v_t.(j)); (-1., v_t.(i)); (-1., v_w.(i)); (-.mmax, v_sigma.(i).(j)) ]
          Lp.Ge (-.mmax)
      end
    done
  done;
  (* (7): sigma'_kij — k finishes before transfer (i,j) starts. *)
  for k = 0 to n - 1 do
    Array.iter
      (fun (e : Dag.edge) ->
        let idx = e.Dag.eid in
        add "c7a"
          [ (1., v_tau.(idx)); (-1., v_t.(k)); (-1., v_w.(k)); (-.mmax, v_msig'.(k).(idx)) ]
          Lp.Le 0.;
        add "c7b"
          [ (1., v_tau.(idx)); (-1., v_t.(k)); (-1., v_w.(k)); (-.mmax, v_msig'.(k).(idx)) ]
          Lp.Ge (-.mmax))
      edges
  done;
  (* (8): c_ijk — transfer (i,j) starts before task k starts. *)
  Array.iter
    (fun (e : Dag.edge) ->
      let idx = e.Dag.eid in
      for k = 0 to n - 1 do
        add "c8a" [ (1., v_t.(k)); (-1., v_tau.(idx)); (-.mmax, v_c.(idx).(k)) ] Lp.Le 0.;
        add "c8b" [ (1., v_t.(k)); (-1., v_tau.(idx)); (-.mmax, v_c.(idx).(k)) ] Lp.Ge (-.mmax)
      done)
    edges;
  (* (9): c'_ijkp — transfer (i,j) starts before transfer (k,p) starts. *)
  Array.iter
    (fun (e : Dag.edge) ->
      Array.iter
        (fun (f : Dag.edge) ->
          if e.Dag.eid <> f.Dag.eid then begin
            add "c9a"
              [ (1., v_tau.(f.Dag.eid)); (-1., v_tau.(e.Dag.eid)); (-.mmax, v_c'.(e.Dag.eid).(f.Dag.eid)) ]
              Lp.Le 0.;
            add "c9b"
              [ (1., v_tau.(f.Dag.eid)); (-1., v_tau.(e.Dag.eid)); (-.mmax, v_c'.(e.Dag.eid).(f.Dag.eid)) ]
              Lp.Ge (-.mmax)
          end)
        edges)
    edges;
  (* (10): d_ijk — transfer (i,j) finishes before task k starts.  The actual
     duration is (1 - delta_ij) C_ij. *)
  Array.iter
    (fun (e : Dag.edge) ->
      let i = e.Dag.src and j = e.Dag.dst and idx = e.Dag.eid in
      for k = 0 to n - 1 do
        add "c10a"
          [ (1., v_t.(k)); (-1., v_tau.(idx)); (e.Dag.comm, v_delta.(i).(j)); (-.mmax, v_d.(idx).(k)) ]
          Lp.Le e.Dag.comm;
        add "c10b"
          [ (1., v_t.(k)); (-1., v_tau.(idx)); (e.Dag.comm, v_delta.(i).(j)); (-.mmax, v_d.(idx).(k)) ]
          Lp.Ge (e.Dag.comm -. mmax)
      done)
    edges;
  (* (11): d'_ijkp — transfer (i,j) finishes before transfer (k,p) starts. *)
  Array.iter
    (fun (e : Dag.edge) ->
      let i = e.Dag.src and j = e.Dag.dst and idx = e.Dag.eid in
      Array.iter
        (fun (f : Dag.edge) ->
          if idx <> f.Dag.eid then begin
            add "c11a"
              [ (1., v_tau.(f.Dag.eid)); (-1., v_tau.(idx)); (e.Dag.comm, v_delta.(i).(j));
                (-.mmax, v_d'.(idx).(f.Dag.eid)) ]
              Lp.Le e.Dag.comm;
            add "c11b"
              [ (1., v_tau.(f.Dag.eid)); (-1., v_tau.(idx)); (e.Dag.comm, v_delta.(i).(j));
                (-.mmax, v_d'.(idx).(f.Dag.eid)) ]
              Lp.Ge (e.Dag.comm -. mmax)
          end)
        edges)
    edges;
  (* (12): eps_ij from processor indices. *)
  let pf = float_of_int p in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        add "c12a" [ (1., v_p.(j)); (-1., v_p.(i)); (-.pf, v_eps.(i).(j)) ] Lp.Le 0.;
        add "c12b" [ (1., v_p.(j)); (-1., v_p.(i)); (-.pf, v_eps.(i).(j)) ] Lp.Ge (1. -. pf)
      end
    done
  done;
  (* (13): b_i from processor indices (b = 0 blue, b = 1 red). *)
  let p1f = float_of_int p1 in
  for i = 0 to n - 1 do
    add "c13a" [ (1., v_p.(i)); (-.pf, v_b.(i)) ] Lp.Le p1f;
    add "c13b" [ (1., v_p.(i)); (-.(pf +. 1.), v_b.(i)) ] Lp.Ge (p1f -. pf)
  done;
  (* (14), (15): completeness / antisymmetry of the start orderings,
     including the diagonal (m_ii = 1, sigma_ii = 0). *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      add "c14" [ (1., v_m2.(i).(j)); (1., v_m2.(j).(i)) ] Lp.Ge 1.;
      add "c15" [ (1., v_sigma.(i).(j)); (1., v_sigma.(j).(i)) ] Lp.Le 1.
    done
  done;
  (* (16): a transfer starting before k starts implies k not started. *)
  Array.iter
    (fun (e : Dag.edge) ->
      for k = 0 to n - 1 do
        add "c16" [ (1., v_m'.(k).(e.Dag.eid)); (1., v_c.(e.Dag.eid).(k)) ] Lp.Ge 1.
      done)
    edges;
  (* (17), (18): transfer-transfer orderings, including the diagonal
     (c'_ee = 1, d'_ee = 0). *)
  for e = 0 to m - 1 do
    for f = 0 to m - 1 do
      add "c17" [ (1., v_c'.(e).(f)); (1., v_c'.(f).(e)) ] Lp.Ge 1.;
      add "c18" [ (1., v_d'.(e).(f)); (1., v_d'.(f).(e)) ] Lp.Le 1.
    done
  done;
  (* (19)-(22): consistency chain sigma => m, c => sigma, d => c, m_j => d. *)
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      add "c19" [ (1., v_m2.(i).(k)); (-1., v_sigma.(i).(k)) ] Lp.Ge 0.
    done
  done;
  Array.iter
    (fun (e : Dag.edge) ->
      let i = e.Dag.src and j = e.Dag.dst and idx = e.Dag.eid in
      for k = 0 to n - 1 do
        add "c20" [ (1., v_sigma.(i).(k)); (-1., v_c.(idx).(k)) ] Lp.Ge 0.;
        add "c21" [ (1., v_c.(idx).(k)); (-1., v_d.(idx).(k)) ] Lp.Ge 0.;
        add "c22" [ (1., v_d.(idx).(k)); (-1., v_m2.(j).(k)) ] Lp.Ge 0.
      done)
    edges;
  (* (23): delta_ij = [b_i = b_j]. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      add "c23a" [ (1., v_delta.(i).(j)); (-1., v_b.(i)); (1., v_b.(j)) ] Lp.Le 1.;
      add "c23b" [ (1., v_delta.(i).(j)); (1., v_b.(i)); (-1., v_b.(j)) ] Lp.Le 1.;
      add "c23c" [ (1., v_delta.(i).(j)); (-1., v_b.(i)); (-1., v_b.(j)) ] Lp.Ge (-1.);
      add "c23d" [ (1., v_delta.(i).(j)); (1., v_b.(i)); (1., v_b.(j)) ] Lp.Ge 1.
    done
  done;
  (* (24): actual durations; b = 0 -> W1 (blue), b = 1 -> W2 (red). *)
  for i = 0 to n - 1 do
    add "c24a" [ (1., v_w.(i)); (-.(w2 i -. w1 i), v_b.(i)) ] Lp.Ge (w1 i);
    add "c24b" [ (1., v_w.(i)); (-.(w2 i -. w1 i), v_b.(i)) ] Lp.Le (w1 i)
  done;
  (* (25): overlapping tasks are on distinct processors. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        add "c25"
          [ (1., v_sigma.(i).(j)); (1., v_sigma.(j).(i)); (1., v_eps.(i).(j)); (1., v_eps.(j).(i)) ]
          Lp.Ge 1.
    done
  done;
  (* (26) with the Figure 7 linearisation: memory bound at every task start. *)
  let v_alpha = Array.make_matrix m n (-1) and v_beta = Array.make_matrix m n (-1) in
  for e = 0 to m - 1 do
    for i = 0 to n - 1 do
      v_alpha.(e).(i) <- Lp.add_var lp ~ub:1. (Printf.sprintf "alpha_e%d_%d" e i);
      v_beta.(e).(i) <- Lp.add_var lp ~ub:1. (Printf.sprintf "beta_e%d_%d" e i)
    done
  done;
  for i = 0 to n - 1 do
    let terms = ref [ (-.(mred -. mblue), v_b.(i)) ] in
    Array.iter
      (fun (e : Dag.edge) ->
        let k = e.Dag.src and pnode = e.Dag.dst and idx = e.Dag.eid in
        terms := (e.Dag.size, v_alpha.(idx).(i)) :: (e.Dag.size, v_beta.(idx).(i)) :: !terms;
        (* alpha_kpi = delta_ik (m_ki - d_kpi) *)
        add "c26a"
          [ (1., v_alpha.(idx).(i)); (-1., v_delta.(i).(k)); (-1., v_m2.(k).(i)); (1., v_d.(idx).(i)) ]
          Lp.Ge (-1.);
        add "c26b"
          [ (2., v_alpha.(idx).(i)); (-1., v_delta.(i).(k)); (-1., v_m2.(k).(i)); (1., v_d.(idx).(i)) ]
          Lp.Le 0.;
        (* beta_kpi = delta_ip (c_kpi - sigma_pi) *)
        add "c26c"
          [ (1., v_beta.(idx).(i)); (-1., v_delta.(i).(pnode)); (-1., v_c.(idx).(i));
            (1., v_sigma.(pnode).(i)) ]
          Lp.Ge (-1.);
        add "c26d"
          [ (2., v_beta.(idx).(i)); (-1., v_delta.(i).(pnode)); (-1., v_c.(idx).(i));
            (1., v_sigma.(pnode).(i)) ]
          Lp.Le 0.)
      edges;
    add "c26" !terms Lp.Le mblue
  done;
  (* (27): memory bound at every transfer start, in the destination memory;
     deactivated (big-M) for same-memory edges. *)
  let v_alpha' = Array.make_matrix m m (-1) and v_beta' = Array.make_matrix m m (-1) in
  for e = 0 to m - 1 do
    for f = 0 to m - 1 do
      v_alpha'.(e).(f) <- Lp.add_var lp ~ub:1. (Printf.sprintf "alphap_e%d_e%d" e f);
      v_beta'.(e).(f) <- Lp.add_var lp ~ub:1. (Printf.sprintf "betap_e%d_e%d" e f)
    done
  done;
  Array.iter
    (fun (eij : Dag.edge) ->
      let i = eij.Dag.src and j = eij.Dag.dst and ij = eij.Dag.eid in
      let terms = ref [ (-.(mred -. mblue), v_b.(j)); (-.mmax, v_delta.(i).(j)) ] in
      Array.iter
        (fun (ekp : Dag.edge) ->
          let k = ekp.Dag.src and pnode = ekp.Dag.dst and kp = ekp.Dag.eid in
          terms := (ekp.Dag.size, v_alpha'.(kp).(ij)) :: (ekp.Dag.size, v_beta'.(kp).(ij)) :: !terms;
          (* alpha'_kpij = delta_kj (m'_kij - d'_kpij) *)
          add "c27a"
            [ (1., v_alpha'.(kp).(ij)); (-1., v_delta.(k).(j)); (-1., v_m'.(k).(ij));
              (1., v_d'.(kp).(ij)) ]
            Lp.Ge (-1.);
          add "c27b"
            [ (2., v_alpha'.(kp).(ij)); (-1., v_delta.(k).(j)); (-1., v_m'.(k).(ij));
              (1., v_d'.(kp).(ij)) ]
            Lp.Le 0.;
          (* beta'_kpij = delta_pj (c'_kpij - sigma'_pij) *)
          add "c27c"
            [ (1., v_beta'.(kp).(ij)); (-1., v_delta.(pnode).(j)); (-1., v_c'.(kp).(ij));
              (1., v_msig'.(pnode).(ij)) ]
            Lp.Ge (-1.);
          add "c27d"
            [ (2., v_beta'.(kp).(ij)); (-1., v_delta.(pnode).(j)); (-1., v_c'.(kp).(ij));
              (1., v_msig'.(pnode).(ij)) ]
            Lp.Le 0.)
        edges;
      add "c27" !terms Lp.Le mblue)
    edges;
  (* Presolve: orderings implied by precedence.  For an ancestor i of j,
     t_j >= t_i + w_i along every path, so "i starts before j" and "i
     finishes before j starts" always hold; "j finishes before i starts" is
     impossible as soon as i has positive duration on both resources
     (zero-weight tasks may share the ancestor's start instant). *)
  if presolve then begin
    let reach = ancestors g in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(j) then begin
          Lp.fix lp v_m2.(i).(j) 1.;
          Lp.fix lp v_sigma.(i).(j) 1.;
          if Dag.w_min g i > 0. then Lp.fix lp v_sigma.(j).(i) 0.
        end
      done
    done
  end;
  {
    lp;
    g;
    platform;
    mmax;
    v_m;
    v_t;
    v_tau;
    v_p;
    v_b;
    v_w;
    v_eps;
    v_delta;
    v_sigma;
    v_m2;
    v_msig';
    v_m';
    v_c;
    v_d;
    v_c';
    v_d';
  }

let extract_schedule t x =
  let s = Schedule.create t.g in
  for i = 0 to Dag.n_tasks t.g - 1 do
    s.Schedule.starts.(i) <- x.(t.v_t.(i));
    s.Schedule.procs.(i) <- int_of_float (Float.round x.(t.v_p.(i))) - 1
  done;
  Array.iter
    (fun (e : Dag.edge) ->
      let bi = Float.round x.(t.v_b.(e.Dag.src)) and bj = Float.round x.(t.v_b.(e.Dag.dst)) in
      if Float.compare bi bj <> 0 then
        s.Schedule.comm_starts.(e.Dag.eid) <- Some x.(t.v_tau.(e.Dag.eid)))
    (Dag.edges t.g);
  s
