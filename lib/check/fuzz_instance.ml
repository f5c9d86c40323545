type t = {
  label : string;
  dag : Dag.t;
  platform : Platform.t;
}

let make ~label dag platform = { label; dag; platform }

let safe_label l =
  let l = if l = "" then "unlabelled" else l in
  String.map (fun c -> if c = ' ' || c = '\t' || c = '\n' then '_' else c) l

let to_string t =
  let p = t.platform in
  Printf.sprintf "instance %s\nplatform %d %d %.17g %.17g\n%s" (safe_label t.label)
    (Platform.n_procs_of p Platform.Blue)
    (Platform.n_procs_of p Platform.Red)
    (Platform.capacity p Platform.Blue)
    (Platform.capacity p Platform.Red)
    (Dag.to_string t.dag)

let of_string s =
  let fail fmt = Printf.ksprintf invalid_arg ("Fuzz_instance.of_string: " ^^ fmt) in
  (* Split off the two header lines; the remainder is the DAG text format. *)
  let line_end from = match String.index_from_opt s from '\n' with
    | Some k -> k
    | None -> fail "truncated input"
  in
  let e1 = line_end 0 in
  let l1 = String.sub s 0 e1 in
  let e2 = line_end (e1 + 1) in
  let l2 = String.sub s (e1 + 1) (e2 - e1 - 1) in
  let rest = String.sub s (e2 + 1) (String.length s - e2 - 1) in
  let label =
    match String.split_on_char ' ' l1 with
    | "instance" :: rest when rest <> [] -> String.concat " " rest
    | _ -> fail "expected 'instance <label>' on line 1"
  in
  let platform =
    match String.split_on_char ' ' l2 with
    | [ "platform"; pb; pr; mb; mr ] -> (
      match
        (int_of_string_opt pb, int_of_string_opt pr, float_of_string_opt mb, float_of_string_opt mr)
      with
      | Some pb, Some pr, Some mb, Some mr -> Platform.make ~p_blue:pb ~p_red:pr ~m_blue:mb ~m_red:mr
      | _ -> fail "malformed platform line %S" l2)
    | _ -> fail "expected 'platform <p_blue> <p_red> <m_blue> <m_red>' on line 2"
  in
  { label; dag = Dag.of_string rest; platform }
