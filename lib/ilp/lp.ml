type var_kind = Continuous | Binary | General_integer

type var = {
  idx : int;
  vname : string;
  lb : float;
  ub : float;
  kind : var_kind;
}

type sense = Le | Ge | Eq
type linexpr = (float * int) list

type constr = {
  cname : string;
  terms : linexpr;
  sense : sense;
  rhs : float;
}

type objective = Minimize of linexpr | Maximize of linexpr

type t = {
  mutable vars : var array;
  mutable nv : int;
  mutable cs : constr array;
  mutable nc : int;
  mutable obj : objective;
}

let dummy_var = { idx = -1; vname = ""; lb = 0.; ub = 0.; kind = Continuous }
let dummy_constr = { cname = ""; terms = []; sense = Le; rhs = 0. }
let create () = { vars = [||]; nv = 0; cs = [||]; nc = 0; obj = Minimize [] }

let grow_vars t =
  if t.nv = Array.length t.vars then begin
    let a = Array.make (max 16 (2 * t.nv)) dummy_var in
    Array.blit t.vars 0 a 0 t.nv;
    t.vars <- a
  end

let grow_cs t =
  if t.nc = Array.length t.cs then begin
    let a = Array.make (max 16 (2 * t.nc)) dummy_constr in
    Array.blit t.cs 0 a 0 t.nc;
    t.cs <- a
  end

let add_var t ?(lb = 0.) ?(ub = infinity) ?(kind = Continuous) vname =
  let lb, ub = match kind with Binary -> (Float.max lb 0., Float.min ub 1.) | _ -> (lb, ub) in
  if lb > ub then invalid_arg "Lp.add_var: lb > ub";
  grow_vars t;
  let idx = t.nv in
  t.vars.(idx) <- { idx; vname; lb; ub; kind };
  t.nv <- idx + 1;
  idx

(* Coefficients are summed per variable in a table, but the table is only
   ever *looked up*: the output is built by walking the input terms in
   insertion order (first occurrence wins), so no Hashtbl iteration order
   can leak into the canonical constraint — the lint order-stability
   invariant.  Exactly-cancelled terms are dropped (exact zero test: a
   coefficient that sums to 0.0 contributes nothing to the row). *)
let normalize_terms terms =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (c, v) ->
      let cur = Option.value ~default:0. (Hashtbl.find_opt tbl v) in
      Hashtbl.replace tbl v (cur +. c))
    terms;
  let emitted = Hashtbl.create 8 in
  List.filter_map
    (fun (_, v) ->
      if Hashtbl.mem emitted v then None
      else begin
        Hashtbl.add emitted v ();
        let c = Hashtbl.find tbl v in
        if Float.equal c 0. then None else Some (c, v)
      end)
    terms
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let add_constr t ~name terms sense rhs =
  grow_cs t;
  t.cs.(t.nc) <- { cname = name; terms = normalize_terms terms; sense; rhs };
  t.nc <- t.nc + 1

let set_objective t obj =
  let obj =
    match obj with
    | Minimize e -> Minimize (normalize_terms e)
    | Maximize e -> Maximize (normalize_terms e)
  in
  t.obj <- obj

let set_kind t idx kind =
  let var = t.vars.(idx) in
  let lb, ub =
    match kind with
    | Binary -> (Float.max var.lb 0., Float.min var.ub 1.)
    | Continuous | General_integer -> (var.lb, var.ub)
  in
  t.vars.(idx) <- { var with kind; lb; ub }

let override_bounds t idx ~lb ~ub =
  if lb > ub +. 1e-12 then invalid_arg "Lp.override_bounds: lb > ub";
  let var = t.vars.(idx) in
  t.vars.(idx) <- { var with lb; ub }

let fix t idx v =
  let var = t.vars.(idx) in
  if v < var.lb -. 1e-9 || v > var.ub +. 1e-9 then invalid_arg "Lp.fix: value out of bounds";
  t.vars.(idx) <- { var with lb = v; ub = v }

let n_vars t = t.nv
let n_constrs t = t.nc
let var t i = t.vars.(i)
let vars t = Array.sub t.vars 0 t.nv
let constrs t = Array.sub t.cs 0 t.nc
let objective t = t.obj

let eval x terms = List.fold_left (fun acc (c, v) -> acc +. (c *. x.(v))) 0. terms

let constraint_violation t x =
  let worst = ref 0. in
  for k = 0 to t.nc - 1 do
    let c = t.cs.(k) in
    let v = eval x c.terms in
    let slack =
      match c.sense with
      | Le -> v -. c.rhs
      | Ge -> c.rhs -. v
      | Eq -> abs_float (v -. c.rhs)
    in
    if slack > !worst then worst := slack
  done;
  for i = 0 to t.nv - 1 do
    let v = t.vars.(i) in
    if x.(i) < v.lb then worst := Float.max !worst (v.lb -. x.(i));
    if x.(i) > v.ub then worst := Float.max !worst (x.(i) -. v.ub)
  done;
  !worst

let integer_violation t x =
  let worst = ref 0. in
  for i = 0 to t.nv - 1 do
    match t.vars.(i).kind with
    | Continuous -> ()
    | Binary | General_integer ->
      let frac = abs_float (x.(i) -. Float.round x.(i)) in
      if frac > !worst then worst := frac
  done;
  !worst
