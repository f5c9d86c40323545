type ctx = { path : string }

type t = {
  id : string;
  doc : string;
  applies : string -> bool;
  check : ctx -> Parsetree.structure -> Lint_finding.t list;
}

(* -------------------------------------------------------------- helpers --- *)

let rec lid_to_string = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, s) -> lid_to_string l ^ "." ^ s
  | Longident.Lapply (a, b) -> lid_to_string a ^ "(" ^ lid_to_string b ^ ")"

(* [Stdlib.min] and [min] are the same function; match them as one name. *)
let normalize s =
  let p = "Stdlib." in
  if String.starts_with ~prefix:p s then String.sub s (String.length p) (String.length s - String.length p)
  else s

let ident_name (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (normalize (lid_to_string txt))
  | _ -> None

(* Head identifier of an application chain (peeling constraints). *)
let rec head_ident (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident _ -> ident_name e
  | Pexp_apply (f, _) -> head_ident f
  | Pexp_constraint (e, _) -> head_ident e
  | _ -> None

let finding ctx ~rule ~hint (loc : Location.t) message =
  let p = loc.Location.loc_start in
  Lint_finding.v ~rule ~file:ctx.path ~line:p.Lexing.pos_lnum
    ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol + 1)
    ~hint message

(* Run an expression-level predicate over a whole structure. *)
let over_exprs (f : Parsetree.expression -> unit) str =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it str

let in_dir dir path = String.starts_with ~prefix:(dir ^ "/") path

(* ---------------------------------------------------------- determinism --- *)

let det_banned =
  [ ("Sys.time", "process CPU clock");
    ("Unix.gettimeofday", "wall clock");
    ("Unix.time", "wall clock");
    ("Domain.self", "scheduling-dependent domain identity") ]

let determinism =
  let hint =
    "seed all randomness/time through the SplitMix64 Rng (lib/util/rng.ml); wall-clock \
     measurement belongs to lib/par counters and annotated bench code"
  in
  let check ctx str =
    let acc = ref [] in
    over_exprs
      (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt; loc } ->
          let s = normalize (lid_to_string txt) in
          (match List.assoc_opt s det_banned with
          | Some what ->
            acc :=
              finding ctx ~rule:"determinism" ~hint loc
                (Printf.sprintf "%s (%s) makes results irreproducible" s what)
              :: !acc
          | None ->
            if String.starts_with ~prefix:"Random." s then
              acc :=
                finding ctx ~rule:"determinism" ~hint loc
                  (Printf.sprintf "%s bypasses the seeded Rng: campaigns stop being replayable" s)
                :: !acc)
        | _ -> ())
      str;
    !acc
  in
  {
    id = "determinism";
    doc = "no Random.*/Sys.time/Unix.gettimeofday/Unix.time/Domain.self outside lib/par and Rng";
    applies = (fun p -> not (in_dir "lib/par" p) && p <> "lib/util/rng.ml");
    check;
  }

(* ----------------------------------------------------- float-discipline --- *)

let poly_float_ops = [ "="; "<>"; "compare"; "min"; "max" ]
let float_arith_ops = [ "+."; "-."; "*."; "/."; "**"; "~-." ]

let float_returning =
  [ "abs_float"; "float_of_int"; "float_of_string"; "sqrt"; "ceil"; "floor"; "exp"; "log";
    "log10"; "cos"; "sin"; "tan"; "atan"; "atan2"; "mod_float"; "ldexp";
    "Float.of_int"; "Float.of_string"; "Float.abs"; "Float.round"; "Float.rem"; "Float.pow";
    "Float.succ"; "Float.pred"; "Float.min"; "Float.max"; "Float.add"; "Float.sub";
    "Float.mul"; "Float.div"; "Fp.lb_plus"; "Staircase.value"; "Staircase.final_value";
    "Staircase.min_from"; "Staircase.min_from_scan";
    "Staircase.earliest_suffix_ge"; "Staircase.earliest_suffix_ge_scan" ]

let float_consts =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float"; "min_float";
    "Float.infinity"; "Float.neg_infinity"; "Float.nan"; "Float.pi"; "Float.epsilon";
    "Float.max_float"; "Float.min_float" ]

let rec is_float_type (ct : Parsetree.core_type) =
  match ct.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, []) -> normalize (lid_to_string txt) = "float"
  | Ptyp_poly (_, ct) -> is_float_type ct
  | _ -> false

let rec floatish (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> List.mem (normalize (lid_to_string txt)) float_consts
  | Pexp_apply (f, _) -> (
    match ident_name f with
    | Some s -> List.mem s float_arith_ops || List.mem s float_returning
    | None -> false)
  | Pexp_constraint (e, ct) -> is_float_type ct || floatish e
  | Pexp_open (_, e) | Pexp_sequence (_, e) -> floatish e
  | _ -> false

let float_discipline =
  let hint =
    "use Fp.eq/Fp.leq/Fp.lt/Fp.gt (eps-aware) for schedule arithmetic, or \
     Float.equal/Float.compare/Float.min/Float.max for intentional exact float operations"
  in
  let check ctx str =
    let acc = ref [] in
    over_exprs
      (fun e ->
        match e.pexp_desc with
        | Pexp_apply (f, args) -> (
          match ident_name f with
          | Some op when List.mem op poly_float_ops ->
            if List.exists (fun (_, a) -> floatish a) args then
              acc :=
                finding ctx ~rule:"float-discipline" ~hint f.Parsetree.pexp_loc
                  (Printf.sprintf
                     "polymorphic %s on a float operand: eps-free comparisons reintroduce the \
                      ulp bugs the fuzzer corpus pinned down"
                     op)
                :: !acc
          | _ -> ())
        | _ -> ())
      str;
    !acc
  in
  {
    id = "float-discipline";
    doc = "no polymorphic =/<>/compare/min/max on syntactically-float operands outside Fp";
    applies = (fun p -> p <> "lib/util/fp.ml");
    check;
  }

(* -------------------------------------------------------- domain-safety --- *)

let mutable_ctors =
  [ "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create" ]

let domain_safety =
  let hint =
    "wrap shared state in Atomic.t or a Mutex (with Fun.protect/Mutex.protect for unlock on \
     every exit), or move it inside the task closure"
  in
  let check ctx str =
    let acc = ref [] in
    (* Top-level mutable globals: every domain-pool task in the process can
       reach them, so unsynchronised ones are data races waiting to happen. *)
    let rec check_binding_rhs (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_tuple es -> List.iter check_binding_rhs es
      | Pexp_constraint (e, _) -> check_binding_rhs e
      | _ -> (
        match head_ident e with
        | Some s when List.mem s mutable_ctors ->
          acc :=
            finding ctx ~rule:"domain-safety" ~hint e.pexp_loc
              (Printf.sprintf
                 "top-level mutable state (%s) is shared, unsynchronised, across pool domains" s)
            :: !acc
        | _ -> ())
    in
    let rec check_items items =
      List.iter
        (fun (item : Parsetree.structure_item) ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter (fun (vb : Parsetree.value_binding) -> check_binding_rhs vb.pvb_expr) vbs
          | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure items; _ }; _ } ->
            check_items items
          | _ -> ())
        items
    in
    check_items str;
    (* Mutex.lock whose binding shows no unlock path: an exception between
       lock and unlock leaves the pool wedged. *)
    let vb_iter =
      {
        Ast_iterator.default_iterator with
        value_binding =
          (fun it vb ->
            let locks = ref [] and unlocked = ref false in
            over_exprs
              (fun e ->
                match e.pexp_desc with
                | Pexp_ident { txt; loc } -> (
                  match normalize (lid_to_string txt) with
                  | "Mutex.lock" -> locks := loc :: !locks
                  | "Mutex.unlock" | "Fun.protect" | "Mutex.protect" -> unlocked := true
                  | _ -> ())
                | _ -> ())
              [ { pstr_desc = Pstr_eval (vb.pvb_expr, []); pstr_loc = vb.pvb_loc } ];
            if not !unlocked then
              List.iter
                (fun loc ->
                  acc :=
                    finding ctx ~rule:"domain-safety" ~hint loc
                      "Mutex.lock with no Mutex.unlock/Fun.protect in the same binding: not \
                       released on every exit"
                    :: !acc)
                !locks;
            Ast_iterator.default_iterator.value_binding it vb);
      }
    in
    vb_iter.structure vb_iter str;
    !acc
  in
  {
    id = "domain-safety";
    doc = "no unsynchronised top-level mutable globals in lib/; Mutex.lock pairs with an unlock path";
    applies = (fun p -> in_dir "lib" p && not (in_dir "lib/par" p));
    check;
  }

(* ------------------------------------------------------------ io-purity --- *)

let io_banned =
  [ "print_string"; "print_endline"; "print_newline"; "print_char"; "print_int"; "print_float";
    "print_bytes"; "prerr_string"; "prerr_endline"; "prerr_newline"; "prerr_char"; "prerr_int";
    "prerr_float"; "prerr_bytes"; "stdout"; "stderr"; "Printf.printf"; "Printf.eprintf";
    "Format.printf"; "Format.eprintf"; "Format.print_string"; "Format.print_newline";
    "Format.print_flush"; "Format.std_formatter"; "Format.err_formatter" ]

let io_purity =
  let hint = "return a string / Table / Csv value and let bin/ print it" in
  let check ctx str =
    let acc = ref [] in
    over_exprs
      (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt; loc } ->
          let s = normalize (lid_to_string txt) in
          if List.mem s io_banned then
            acc :=
              finding ctx ~rule:"io-purity" ~hint loc
                (Printf.sprintf "console IO (%s) in library code" s)
              :: !acc
        | _ -> ())
      str;
    !acc
  in
  {
    id = "io-purity";
    doc = "no console output anywhere in lib/";
    applies = in_dir "lib";
    check;
  }

(* ------------------------------------------------------ order-stability --- *)

let order_banned =
  [ "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values" ]

(* Unchecked array access reads whatever an off-by-one index happens to hit —
   on the packed CSR rows that is a silently wrong (platform-dependent)
   float, not an exception, so digests diverge with no failing test.  Only
   the flat-graph owner (lib/dag/dag.ml), where construction establishes the
   offsets, may use them. *)
let order_unsafe = [ "Array.unsafe_get"; "Array.unsafe_set" ]
let order_unsafe_owner = "lib/dag/dag.ml"

let order_stability =
  let hint =
    "iterate sorted keys (or an explicit insertion-order list) instead; if a later sort already \
     restores a canonical order, annotate the call with its reason"
  in
  let unsafe_hint =
    "walk CSR rows with the bounds-checked accessors (Dag.Csr offsets + a.(i)); unchecked \
     indexing outside lib/dag/dag.ml turns an index bug into a silent wrong float"
  in
  let check ctx str =
    let acc = ref [] in
    over_exprs
      (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt; loc } ->
          let s = normalize (lid_to_string txt) in
          if List.mem s order_banned then
            acc :=
              finding ctx ~rule:"order-stability" ~hint loc
                (Printf.sprintf
                   "%s enumerates in hash-bucket order (insertion-history dependent): golden \
                    CSV/digest outputs must not depend on it"
                   s)
              :: !acc
          else if List.mem s order_unsafe && ctx.path <> order_unsafe_owner then
            acc :=
              finding ctx ~rule:"order-stability" ~hint:unsafe_hint loc
                (Printf.sprintf
                   "%s bypasses bounds checks: an off-by-one on a packed CSR row yields a \
                    wrong value instead of an exception"
                   s)
              :: !acc
        | _ -> ())
      str;
    !acc
  in
  {
    id = "order-stability";
    doc =
      "no Hashtbl.iter/fold/to_seq feeding order-sensitive output; no Array.unsafe_get/set \
       outside the CSR owner module";
    applies = (fun _ -> true);
    check;
  }

(* ------------------------------------------------------------- registry --- *)

let all = [ determinism; float_discipline; domain_safety; io_purity; order_stability ]
let names = List.map (fun r -> r.id) all
let find id = List.find_opt (fun r -> r.id = id) all
