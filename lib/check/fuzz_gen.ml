(* Seeded instance generation for the differential fuzzer.

   Every draw flows through the [Rng.t] handed in by the engine (one split
   stream per case, derived before dispatch), so the whole campaign is
   deterministic and independent of the worker count.  The generator covers
   the cross product of

     shape    x  cost regime  x  platform regime

   where shape spans the paper's families (layered random, LU, Cholesky)
   plus the adversarial ones the fixed fixtures never hit (chains, forks,
   broadcast trees, disconnected unions, independent tasks), cost regimes
   include zero-bandwidth and zero-file degenerations, and platform regimes
   sweep the memory caps from unbounded down to just-below-peak and
   provably-infeasible. *)

(* ------------------------------------------------------------- rebuild --- *)

(* Rebuild a DAG with transformed costs (used by the cost regimes). *)
let map_costs ~task:ftask ~edge:fedge g =
  let b = Dag.Builder.create () in
  Array.iter
    (fun (t : Dag.task) ->
      let w_blue, w_red = ftask t in
      ignore (Dag.Builder.add_task b ~name:t.Dag.name ~w_blue ~w_red ()))
    (Dag.tasks g);
  Array.iter
    (fun (e : Dag.edge) ->
      let size, comm = fedge e in
      Dag.Builder.add_edge b ~src:e.Dag.src ~dst:e.Dag.dst ~size ~comm)
    (Dag.edges g);
  Dag.Builder.finalize b

(* Disjoint union of two DAGs (disconnected components). *)
let union g1 g2 =
  let b = Dag.Builder.create () in
  let add g prefix =
    let base = ref (-1) in
    Array.iter
      (fun (t : Dag.task) ->
        let id =
          Dag.Builder.add_task b ~name:(prefix ^ t.Dag.name) ~w_blue:t.Dag.w_blue
            ~w_red:t.Dag.w_red ()
        in
        if !base < 0 then base := id)
      (Dag.tasks g);
    let base = !base in
    Array.iter
      (fun (e : Dag.edge) ->
        Dag.Builder.add_edge b ~src:(base + e.Dag.src) ~dst:(base + e.Dag.dst) ~size:e.Dag.size
          ~comm:e.Dag.comm)
      (Dag.edges g)
  in
  add g1 "a.";
  add g2 "b.";
  Dag.Builder.finalize b

(* A star: one producer broadcasting an identical file to [d] consumers,
   then linearised into the paper's relay pipeline. *)
let broadcast_tree rng =
  let d = Rng.int_incl rng 3 6 in
  let w () = float_of_int (Rng.int_incl rng 1 9) in
  let size = float_of_int (Rng.int_incl rng 1 6) in
  let comm = float_of_int (Rng.int_incl rng 1 4) in
  let b = Dag.Builder.create () in
  let src = Dag.Builder.add_task b ~name:"src" ~w_blue:(w ()) ~w_red:(w ()) () in
  for k = 1 to d do
    let c =
      Dag.Builder.add_task b ~name:(Printf.sprintf "c%d" k) ~w_blue:(w ()) ~w_red:(w ()) ()
    in
    Dag.Builder.add_edge b ~src ~dst:c ~size ~comm
  done;
  Broadcast.linearize (Dag.Builder.finalize b)

(* --------------------------------------------------------------- shapes --- *)

let daggen rng ~label ~size ~width ~density =
  let params =
    { Daggen.small_rand_params with Daggen.size; Daggen.width; Daggen.density }
  in
  (label, Daggen.generate rng params)

let shape rng =
  match Rng.int rng 11 with
  | 0 -> daggen rng ~label:"daggen" ~size:(Rng.int_incl rng 6 24) ~width:0.3 ~density:0.5
  | 1 -> daggen rng ~label:"daggen-chainy" ~size:(Rng.int_incl rng 5 16) ~width:0.12 ~density:0.7
  | 2 -> daggen rng ~label:"daggen-wide" ~size:(Rng.int_incl rng 6 20) ~width:0.9 ~density:0.9
  | 3 ->
    let n = Rng.int_incl rng 2 9 in
    let f k = float_of_int (Rng.int_incl rng 1 k) in
    ("chain", Toy.chain ~n ~w:(f 9) ~f:(f 6) ~c:(f 4))
  | 4 ->
    let width = Rng.int_incl rng 2 7 in
    let f k = float_of_int (Rng.int_incl rng 1 k) in
    ("fork-join", Toy.fork_join ~width ~w:(f 9) ~f:(f 6) ~c:(f 4))
  | 5 -> ("diamond", Toy.diamond ())
  | 6 ->
    let n = Rng.int_incl rng 2 7 in
    let f k = float_of_int (Rng.int_incl rng 1 k) in
    ("independent", Toy.independent ~n ~w_blue:(f 9) ~w_red:(f 9))
  | 7 -> ("broadcast", broadcast_tree rng)
  | 8 ->
    let _, g1 = daggen rng ~label:"" ~size:(Rng.int_incl rng 3 8) ~width:0.3 ~density:0.5 in
    let _, g2 = daggen rng ~label:"" ~size:(Rng.int_incl rng 3 8) ~width:0.6 ~density:0.5 in
    ("disconnected", union g1 g2)
  | 9 -> ("lu", Lu.generate ~n:(Rng.int_incl rng 2 3) ())
  | _ -> ("cholesky", Cholesky.generate ~n:(Rng.int_incl rng 2 4) ())

(* --------------------------------------------------------- cost regimes --- *)

let cost_regime rng (label, g) =
  match Rng.int rng 9 with
  | 0 ->
    (* Zero bandwidth cost: transfers are free, cut edges everywhere. *)
    (label ^ "/zero-comm", map_costs g ~task:(fun t -> (t.Dag.w_blue, t.Dag.w_red)) ~edge:(fun e -> (e.Dag.size, 0.)))
  | 1 ->
    (* Zero file sizes: memory is never constrained, transfers still cost. *)
    (label ^ "/zero-size", map_costs g ~task:(fun t -> (t.Dag.w_blue, t.Dag.w_red)) ~edge:(fun e -> (0., e.Dag.comm)))
  | 2 ->
    (* Huge transfer times: cross-memory placement is catastrophic. *)
    (label ^ "/slow-link", map_costs g ~task:(fun t -> (t.Dag.w_blue, t.Dag.w_red)) ~edge:(fun e -> (e.Dag.size, 50. *. (1. +. e.Dag.comm))))
  | 3 ->
    (* Strong heterogeneity: blue and red costs differ by 10x either way. *)
    ( label ^ "/hetero",
      map_costs g
        ~task:(fun t ->
          if Rng.bool rng then (10. *. t.Dag.w_blue, t.Dag.w_red) else (t.Dag.w_blue, 10. *. t.Dag.w_red))
        ~edge:(fun e -> (e.Dag.size, e.Dag.comm)) )
  | 4 ->
    (* Zero-work tasks mixed in (broadcast relays do this for real). *)
    ( label ^ "/zero-work",
      map_costs g
        ~task:(fun t -> if Rng.int rng 4 = 0 then (0., 0.) else (t.Dag.w_blue, t.Dag.w_red))
        ~edge:(fun e -> (e.Dag.size, e.Dag.comm)) )
  | 5 ->
    (* Non-representable fractional costs: every time is a multiple of 1/7,
       so start/finish arithmetic rounds and summation order matters.  This
       is the regime that separates eps-tolerant comparisons from exact
       ones (integer costs make all schedule arithmetic exact). *)
    ( label ^ "/frac",
      map_costs g
        ~task:(fun t -> (t.Dag.w_blue /. 7., t.Dag.w_red /. 7.))
        ~edge:(fun e -> (e.Dag.size /. 7., e.Dag.comm /. 7.)) )
  | _ -> (label, g)

(* ----------------------------------------------------- platform regimes --- *)

let platform_regime rng g =
  let p_blue = Rng.int_incl rng 1 3 in
  let p_red = Rng.int_incl rng 1 3 in
  let procs = Platform.unbounded ~p_blue ~p_red in
  let peak () =
    let _, (pb, pr) = Heuristics.heft_measured g procs in
    Float.max pb pr
  in
  let bounded tag m = (tag, Platform.with_bounds procs ~m_blue:m ~m_red:m) in
  let tag, platform =
    match Rng.int rng 8 with
    | 0 -> ("unbounded", procs)
    | 1 -> bounded "generous" (Float.max 1. (Dag.total_file_size g))
    | 2 ->
      let alphas = [| 0.3; 0.5; 0.7; 0.85; 1.0; 1.1 |] in
      let a = alphas.(Rng.int rng (Array.length alphas)) in
      bounded (Printf.sprintf "alpha=%g" a) (a *. peak ())
    | 3 -> bounded "just-below-peak" (peak () *. (1. -. 1e-9))
    | 4 -> bounded "below-min" (0.99 *. Lower_bound.min_memory g)
    | 5 -> bounded "at-min" (Lower_bound.min_memory g)
    | 6 ->
      ( "asym",
        Platform.with_bounds procs ~m_blue:(0.6 *. peak ())
          ~m_red:(Float.max 1. (Dag.total_file_size g)) )
    | _ -> bounded "zero" 0.
  in
  (Printf.sprintf "%s/p%dx%d" tag p_blue p_red, platform)

(* ---------------------------------------------------------------- entry --- *)

let instance rng =
  let shape_label, g = cost_regime rng (shape rng) in
  let plat_label, platform = platform_regime rng g in
  Fuzz_instance.make ~label:(shape_label ^ "/" ^ plat_label) g platform
