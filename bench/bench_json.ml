(* Shared emitter for the committed results/BENCH_*.json artifacts.

   Every bench section serialises to the same shape so downstream tooling
   (jq checks in the Makefile, PR-over-PR trend scripts) can treat them
   uniformly:

     { "bench": "<name>", "scale": "<scale>", <extra...>,
       "entries": [ { ... }, ... ] }

   Entries are flat association lists; floats are printed with [%.6g]
   (non-finite values become [null], which jq handles gracefully). *)

type value = S of string | I of int | F of float | B of bool

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let add_value b = function
  | S s -> Printf.bprintf b "\"%s\"" (escape s)
  | I i -> Printf.bprintf b "%d" i
  | F f -> if Float.is_finite f then Printf.bprintf b "%.6g" f else Buffer.add_string b "null"
  | B v -> Buffer.add_string b (if v then "true" else "false")

let add_fields b fields =
  List.iteri
    (fun k (key, v) ->
      if k > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": " (escape key);
      add_value b v)
    fields

let write ~out_dir ~file ~bench ~scale ~extra entries =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  add_fields b ((("bench", S bench) :: ("scale", S scale) :: extra));
  Buffer.add_string b ",\n  \"entries\": [\n";
  let last = List.length entries - 1 in
  List.iteri
    (fun k fields ->
      Buffer.add_string b "    {";
      add_fields b fields;
      Buffer.add_string b (if k = last then "}\n" else "},\n"))
    entries;
  Buffer.add_string b "  ]\n}\n";
  (if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755);
  let path = Filename.concat out_dir file in
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "wrote %s\n%!" path
