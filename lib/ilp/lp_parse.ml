let fail fmt = Printf.ksprintf invalid_arg ("Lp_parse: " ^^ fmt)

type section = Objective of bool (* maximise? *) | Subject_to | Bounds | Binaries | Generals | End

let section_of_line line =
  match String.lowercase_ascii (String.trim line) with
  | "minimize" | "min" | "minimum" -> Some (Objective false)
  | "maximize" | "max" | "maximum" -> Some (Objective true)
  | "subject to" | "st" | "s.t." | "such that" -> Some Subject_to
  | "bounds" | "bound" -> Some Bounds
  | "binaries" | "binary" | "bin" -> Some Binaries
  | "generals" | "general" | "gen" -> Some Generals
  | "end" -> Some End
  | _ -> None

(* Tokenise an expression string into words, splitting +, -, <=, >=, = into
   their own tokens. *)
let tokenize s =
  let buf = Buffer.create 16 in
  let tokens = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf
    end
  in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    (match c with
    | ' ' | '\t' -> flush ()
    | '+' | '-' ->
      flush ();
      tokens := String.make 1 c :: !tokens
    | '<' | '>' | '=' ->
      flush ();
      if c = '=' then tokens := "=" :: !tokens
      else begin
        let op = if !i + 1 < n && s.[!i + 1] = '=' then (incr i; Printf.sprintf "%c=" c)
          else String.make 1 c in
        tokens := op :: !tokens
      end
    | _ -> Buffer.add_char buf c);
    incr i
  done;
  flush ();
  List.rev !tokens

let is_number tok = match float_of_string_opt tok with Some _ -> true | None -> false

(* Parse tokens of a linear expression into (terms, rest-after-relation). *)
let parse_expr var_of tokens =
  let rec go sign coef_pending acc = function
    | [] -> (acc, None, [])
    | ("<=" | "<") :: rest -> (acc, Some Lp.Le, rest)
    | (">=" | ">") :: rest -> (acc, Some Lp.Ge, rest)
    | "=" :: rest -> (acc, Some Lp.Eq, rest)
    | "+" :: rest -> go 1. None acc rest
    | "-" :: rest -> go (-1.) None acc rest
    | tok :: rest when is_number tok -> (
      match coef_pending with
      | None -> go sign (Some (float_of_string tok)) acc rest
      | Some _ -> fail "two consecutive numbers near %S" tok)
    | tok :: rest ->
      let coef = sign *. Option.value ~default:1. coef_pending in
      go 1. None ((coef, var_of tok) :: acc) rest
  in
  go 1. None [] tokens

let of_string text =
  let lp = Lp.create () in
  let vars = Hashtbl.create 64 in
  let var_of name =
    match Hashtbl.find_opt vars name with
    | Some v -> v
    | None ->
      let v = Lp.add_var lp name in
      Hashtbl.add vars name v;
      v
  in
  let lines =
    String.split_on_char '\n' text
    |> List.map (fun l -> match String.index_opt l '\\' with
         | Some k -> String.sub l 0 k
         | None -> l)
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let section = ref None in
  let pending = Buffer.create 128 in
  let constr_count = ref 0 in
  let strip_label s =
    match String.index_opt s ':' with
    | Some k -> (Some (String.trim (String.sub s 0 k)), String.sub s (k + 1) (String.length s - k - 1))
    | None -> (None, s)
  in
  let flush_statement () =
    let stmt = String.trim (Buffer.contents pending) in
    Buffer.clear pending;
    if stmt <> "" then begin
      match !section with
      | Some (Objective maximise) ->
        let _, body = strip_label stmt in
        let terms, rel, _ = parse_expr var_of (tokenize body) in
        if rel <> None then fail "relation in objective";
        Lp.set_objective lp (if maximise then Lp.Maximize terms else Lp.Minimize terms)
      | Some Subject_to -> (
        let label, body = strip_label stmt in
        let terms, rel, rest = parse_expr var_of (tokenize body) in
        match (rel, rest) with
        | Some sense, [ rhs ] when is_number rhs ->
          incr constr_count;
          let name = Option.value ~default:(Printf.sprintf "c%d" !constr_count) label in
          Lp.add_constr lp ~name terms sense (float_of_string rhs)
        | Some sense, [ sign; rhs ] when (sign = "-" || sign = "+") && is_number rhs ->
          incr constr_count;
          let name = Option.value ~default:(Printf.sprintf "c%d" !constr_count) label in
          let v = float_of_string rhs in
          Lp.add_constr lp ~name terms sense (if sign = "-" then -.v else v)
        | _ -> fail "malformed constraint %S" stmt)
      | Some Bounds -> (
        match tokenize stmt with
        | [ name; "free" ] | [ name; "Free" ] | [ name; "FREE" ] ->
          Lp.override_bounds lp (var_of name) ~lb:neg_infinity ~ub:infinity
        | [ lo; "<="; name; "<="; hi ] when is_number lo && is_number hi ->
          Lp.override_bounds lp (var_of name) ~lb:(float_of_string lo) ~ub:(float_of_string hi)
        | [ "-"; lo; "<="; name; "<="; hi ] when is_number lo && is_number hi ->
          Lp.override_bounds lp (var_of name) ~lb:(-.float_of_string lo) ~ub:(float_of_string hi)
        | [ name; "<="; hi ] when is_number hi ->
          let v = var_of name in
          Lp.override_bounds lp v ~lb:(Lp.var lp v).Lp.lb ~ub:(float_of_string hi)
        | [ name; ">="; lo ] when is_number lo ->
          let v = var_of name in
          Lp.override_bounds lp v ~lb:(float_of_string lo) ~ub:(Lp.var lp v).Lp.ub
        | [ name; ">="; "-"; lo ] when is_number lo ->
          let v = var_of name in
          Lp.override_bounds lp v ~lb:(-.float_of_string lo) ~ub:(Lp.var lp v).Lp.ub
        | [ name; "="; value ] when is_number value -> Lp.fix lp (var_of name) (float_of_string value)
        | _ -> fail "malformed bound %S" stmt)
      | Some Binaries ->
        String.split_on_char ' ' stmt
        |> List.filter (fun t -> t <> "")
        |> List.iter (fun name -> Lp.set_kind lp (var_of name) Lp.Binary)
      | Some Generals ->
        String.split_on_char ' ' stmt
        |> List.filter (fun t -> t <> "")
        |> List.iter (fun name -> Lp.set_kind lp (var_of name) Lp.General_integer)
      | Some End | None -> fail "statement outside any section: %S" stmt
    end
  in
  List.iter
    (fun line ->
      match section_of_line line with
      | Some s ->
        flush_statement ();
        section := Some s
      | None -> (
        match !section with
        | Some Subject_to when String.contains line ':' ->
          (* a new labelled constraint terminates the previous statement *)
          flush_statement ();
          Buffer.add_string pending line
        | Some Bounds | Some Binaries | Some Generals ->
          (* one statement per line in these sections *)
          flush_statement ();
          Buffer.add_string pending line;
          flush_statement ()
        | _ ->
          Buffer.add_char pending ' ';
          Buffer.add_string pending line))
    lines;
  flush_statement ();
  lp
