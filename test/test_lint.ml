(* Tests for lib/lint: per-rule firing fixtures (one minimal bad snippet per
   rule, asserting the exact file:line:col), the path carve-outs, inline
   pragma suppression (including its single-rule scoping), the allowlist,
   the engine end-to-end on a planted-violation temp tree, and the typed
   interprocedural pass on an ocamlc-compiled cmt fixture tree (cross-module
   race, float/arrow poly-compare, effect propagation, cache cold/warm and
   --jobs byte-identity) — plus the repo self-clean gate that makes any new
   lint finding fail tier-1. *)

open Helpers

let lint ?rules ~path src = Lint_engine.lint_string ?rules ~path src

let rules_of fs =
  List.sort_uniq String.compare (List.map (fun f -> f.Lint_finding.rule) fs)

let check_one_finding name ~rule ~line ~col fs =
  match fs with
  | [ f ] ->
    check_string (name ^ ": rule") rule f.Lint_finding.rule;
    check_int (name ^ ": line") line f.Lint_finding.line;
    check_int (name ^ ": col") col f.Lint_finding.col
  | fs ->
    Alcotest.failf "%s: expected exactly one finding, got %d:\n%s" name
      (List.length fs)
      (String.concat "\n" (List.map Lint_finding.to_text fs))

(* One minimal violation per rule: (rule, path it fires in, source, line, col).
   The registry check below keeps this table in sync with Lint_rules.all. *)
let firing_fixtures =
  [ ("determinism", "lib/core/x.ml", "let x () = Random.int 3\n", 1, 12);
    ("float-discipline", "lib/core/x.ml", "let bad a = a = 1.0\n", 1, 15);
    ("domain-safety", "lib/core/x.ml", "let cache = Hashtbl.create 16\n", 1, 13);
    ("io-purity", "lib/core/x.ml", "let f () = Printf.printf \"hi\"\n", 1, 12);
    ( "order-stability",
      "lib/core/x.ml",
      "let f h = Hashtbl.fold (fun _ v acc -> v :: acc) h []\n",
      1,
      11 ) ]

let test_registry_covered () =
  check_int "one firing fixture per registered rule" (List.length Lint_rules.all)
    (List.length firing_fixtures);
  List.iter
    (fun (rule, _, _, _, _) ->
      check_bool (rule ^ " is a registered rule id") true (Option.is_some (Lint_rules.find rule)))
    firing_fixtures;
  check_bool "unknown rule id is rejected" true (Option.is_none (Lint_rules.find "no-such-rule"))

let test_rules_fire () =
  List.iter
    (fun (rule, path, src, line, col) ->
      check_one_finding rule ~rule ~line ~col (lint ~path src))
    firing_fixtures

(* Appending the pragma to the offending line silences that rule — and only
   that rule (scoping is checked separately below). *)
let test_rules_suppressed_same_line () =
  List.iter
    (fun (rule, path, src, _, _) ->
      let line = String.sub src 0 (String.length src - 1) in
      let src = Printf.sprintf "%s (* lint: allow %s -- fixture *)\n" line rule in
      check_int (rule ^ ": same-line pragma silences it") 0 (List.length (lint ~path src)))
    firing_fixtures

let test_rules_suppressed_previous_line () =
  List.iter
    (fun (rule, path, src, _, _) ->
      let src = Printf.sprintf "(* lint: allow %s -- fixture *)\n%s" rule src in
      check_int (rule ^ ": preceding-line pragma silences it") 0 (List.length (lint ~path src)))
    firing_fixtures

(* A pragma names ONE rule: allowing io-purity on a line that also calls
   Sys.time must still report the determinism finding. *)
let test_suppression_scoped_to_rule () =
  let src = "let f () = Printf.printf \"%f\" (Sys.time ()) (* lint: allow io-purity -- scoped *)\n" in
  let fs = lint ~path:"lib/core/x.ml" src in
  check_string "only the other rule survives" "determinism" (String.concat "," (rules_of fs));
  let src = "let f () = Printf.printf \"%f\" (Sys.time ()) (* lint: allow determinism -- scoped *)\n" in
  let fs = lint ~path:"lib/core/x.ml" src in
  check_string "swapped pragma, swapped survivor" "io-purity" (String.concat "," (rules_of fs))

let test_pragma_two_lines_only () =
  (* The pragma reaches its own line and the next one, not further. *)
  let src = "(* lint: allow order-stability -- near *)\n\nlet f h = Hashtbl.fold (fun _ v a -> v :: a) h []\n" in
  check_string "pragma two lines up does not reach" "order-stability"
    (String.concat "," (rules_of (lint ~path:"lib/core/x.ml" src)))

(* ------------------------------------------------- carve-outs / negatives --- *)

let test_path_carveouts () =
  let clean name path src = check_int name 0 (List.length (lint ~path src)) in
  clean "lib/par may read Domain.self" "lib/par/pool.ml" "let d () = Domain.self ()\n";
  clean "the seeded Rng implements randomness" "lib/util/rng.ml" "let r () = Random.int 3\n";
  clean "Fp owns raw float comparison" "lib/util/fp.ml" "let eq a b = a = (b : float)\n";
  clean "bin/ may print" "bin/cli.ml" "let f () = Printf.printf \"hi\"\n";
  (* domain-safety is a lib/ rule: a test fixture's global Hashtbl is fine *)
  clean "test/ may hold globals" "test/t.ml" "let cache = Hashtbl.create 16\n";
  clean "lib/dag owns unchecked CSR indexing" "lib/dag/dag.ml"
    "let g a i = Array.unsafe_get a i\n"

(* io-purity has no carve-out: the report writers return data too, so a
   print in the Table or Csv module is flagged like any other in lib/. *)
let test_io_purity_covers_writers () =
  List.iter
    (fun path ->
      check_one_finding path ~rule:"io-purity" ~line:1 ~col:12
        (lint ~path "let f () = print_string \"x\"\n"))
    [ "lib/util/table.ml"; "lib/util/csv.ml" ]

(* Raw unchecked indexing is the order-stability rule's second head: outside
   the CSR owner module it turns an off-by-one into a silent wrong value. *)
let test_unsafe_array_rule () =
  check_one_finding "unsafe_get in lib" ~rule:"order-stability" ~line:1 ~col:13
    (lint ~path:"lib/core/x.ml" "let g a i = Array.unsafe_get a i\n");
  check_one_finding "unsafe_set in bench" ~rule:"order-stability" ~line:1 ~col:15
    (lint ~path:"bench/pipeline/driver.ml" "let s a i v = Array.unsafe_set a i v\n")

let test_negatives () =
  let clean name src = check_int name 0 (List.length (lint ~path:"lib/core/x.ml" src)) in
  clean "Float.equal is the sanctioned exact form" "let ok a b = Float.equal (a *. 2.) b\n";
  clean "polymorphic = on ints is fine" "let ok a = a = 1\n";
  clean "function-local ref is not shared state" "let f () = let r = ref 0 in incr r; !r\n";
  clean "Atomic.make is the sanctioned global" "let n = Atomic.make 0\n";
  clean "Hashtbl lookups do not depend on bucket order" "let g h k = Hashtbl.find_opt h k\n";
  clean "Printf.sprintf returns data" "let s x = Printf.sprintf \"%d\" x\n"

(* Division of labour, pinned on purpose: the float-discipline rule is
   syntactic (untyped parsetree), so [compare a.eft b.eft] on record fields
   of type [float] is invisible to it — the field's type lives in another
   file.  The typed poly-compare rule closes exactly this gap on the
   Typedtree (see test_typed_planted_tree: Pt.t's float fields are declared
   in another module and still flagged).  This fixture keeps the syntactic
   rule honest about its reach so the two passes' responsibilities stay
   visible. *)
let test_float_field_compare_gap () =
  let src = "type n = { eft : float }\nlet cmp a b = compare a.eft b.eft\n" in
  check_int "record-float-field compare is NOT flagged (documented gap)" 0
    (List.length (lint ~path:"lib/core/x.ml" src));
  (* the same comparison with a visible float literal IS flagged: the rule
     keys on syntactic evidence of float-ness, which fields do not carry *)
  check_int "literal-float compare is flagged" 1
    (List.length (lint ~path:"lib/core/x.ml" "let bad a = compare a 1.0\n"))

let test_mutex_rule () =
  let fs = lint ~path:"lib/core/x.ml" "let f m w = Mutex.lock m; w ()\n" in
  check_one_finding "bare Mutex.lock" ~rule:"domain-safety" ~line:1 ~col:13 fs;
  let src = "let g m w = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) w\n" in
  check_int "lock with an unlock path is fine" 0 (List.length (lint ~path:"lib/core/x.ml" src))

let test_rule_selection () =
  (* --rule narrows the pass: with only io-purity selected, the Sys.time
     call on the same line is invisible. *)
  let rules = Option.to_list (Lint_rules.find "io-purity") in
  let src = "let f () = Printf.printf \"%f\" (Sys.time ())\n" in
  check_string "only the selected rule runs" "io-purity"
    (String.concat "," (rules_of (lint ~rules ~path:"lib/core/x.ml" src)))

let test_parse_failure_is_a_finding () =
  match lint ~path:"lib/core/x.ml" "let = =\n" with
  | [ f ] -> check_string "syntax errors surface as findings" "parse" f.Lint_finding.rule
  | fs -> Alcotest.failf "expected one parse finding, got %d" (List.length fs)

(* ------------------------------------------------------------- renderers --- *)

let test_renderers () =
  let f =
    Lint_finding.v ~rule:"io-purity" ~file:"lib/a.ml" ~line:3 ~col:7 ~hint:"return data"
      "console IO (\"quoted\")"
  in
  check_string "text line" "lib/a.ml:3:7: [io-purity] console IO (\"quoted\") (fix: return data)"
    (Lint_finding.to_text f);
  check_string "json escaping" "console IO (\\\"quoted\\\")"
    (Lint_finding.json_escape "console IO (\"quoted\")");
  check_string "clean text report" "lint: clean\n" (Lint_engine.render_text []);
  check_string "empty json report" "{\"findings\":[],\"count\":0}\n" (Lint_engine.render_json [])

(* ------------------------------------------------------------- allowlist --- *)

let test_allowlist_parse () =
  let src = "# grandfathered\n\ndeterminism bench/pipeline/driver.ml\nio-purity lib/a.ml # reason\n" in
  (match Lint_allowlist.parse_string src with
  | Error e -> Alcotest.failf "unexpected parse error: %s" e
  | Ok entries ->
    check_int "two entries" 2 (List.length entries);
    let e = List.nth entries 1 in
    check_string "rule" "io-purity" e.Lint_allowlist.rule;
    check_string "file" "lib/a.ml" e.Lint_allowlist.file);
  match Lint_allowlist.parse_string "# ok\nmalformed-no-path\n" with
  | Error e ->
    check_bool "error names the line" true
      (String.starts_with ~prefix:"line 2" e)
  | Ok _ -> Alcotest.fail "malformed entry must be rejected"

let test_allowlist_filter_scoped () =
  let f ~rule ~file = Lint_finding.v ~rule ~file ~line:1 ~col:1 ~hint:"h" "m" in
  let fs =
    [ f ~rule:"io-purity" ~file:"lib/a.ml";
      f ~rule:"determinism" ~file:"lib/a.ml";
      f ~rule:"io-purity" ~file:"lib/b.ml" ]
  in
  let entries = [ { Lint_allowlist.rule = "io-purity"; file = "lib/a.ml" } ] in
  let kept = Lint_allowlist.filter entries fs in
  check_int "exactly the (rule, file) pair is dropped" 2 (List.length kept);
  check_bool "same file, other rule survives" true
    (List.exists (fun f -> f.Lint_finding.rule = "determinism") kept);
  check_bool "same rule, other file survives" true
    (List.exists (fun f -> f.Lint_finding.file = "lib/b.ml") kept)

(* --------------------------------------------- engine on a planted tree --- *)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let run_exn ?jobs root =
  match Lint_engine.run ?jobs ~root () with
  | Ok fs -> fs
  | Error e -> Alcotest.failf "engine error: %s" e

let test_engine_planted_tree () =
  let root = Filename.temp_dir "memsched_lint" "" in
  Sys.mkdir (Filename.concat root "lib") 0o755;
  let planted = Filename.concat root "lib/planted.ml" in
  let more = Filename.concat root "lib/z_more.ml" in
  write_file planted "let now () = Unix.gettimeofday ()\nlet say () = Printf.printf \"x\"\n";
  write_file more "let h = Hashtbl.create 8\nlet f tbl = Hashtbl.fold (fun k _ a -> k :: a) tbl []\n";
  write_file (Filename.concat root "lint.allowlist") "io-purity lib/planted.ml\n";
  check_string "discovery is sorted" "lib/planted.ml,lib/z_more.ml"
    (String.concat "," (Lint_engine.discover ~root));
  let fs = run_exn root in
  (* allowlist swallowed the planted io-purity finding, nothing else *)
  check_string "sorted survivor set"
    "lib/planted.ml:1:determinism,lib/z_more.ml:1:domain-safety,lib/z_more.ml:2:order-stability"
    (String.concat ","
       (List.map
          (fun f -> Printf.sprintf "%s:%d:%s" f.Lint_finding.file f.Lint_finding.line f.Lint_finding.rule)
          fs));
  (* satellite contract: the JSON report is byte-identical across --jobs *)
  check_string "jobs=1 and jobs=2 render identical bytes"
    (Lint_engine.render_json (run_exn ~jobs:1 root))
    (Lint_engine.render_json (run_exn ~jobs:2 root));
  (* mutation 1: a pragma for the WRONG rule changes nothing *)
  write_file more
    "let h = Hashtbl.create 8 (* lint: allow determinism -- wrong rule *)\nlet f tbl = Hashtbl.fold (fun k _ a -> k :: a) tbl []\n";
  check_int "pragma for another rule does not suppress" 3 (List.length (run_exn root));
  (* mutation 2: the right rule id silences exactly that finding *)
  write_file more
    "let h = Hashtbl.create 8 (* lint: allow domain-safety -- planted *)\nlet f tbl = Hashtbl.fold (fun k _ a -> k :: a) tbl []\n";
  let fs = run_exn root in
  check_string "only the annotated finding disappeared" "lib/planted.ml:determinism,lib/z_more.ml:order-stability"
    (String.concat ","
       (List.map (fun f -> Printf.sprintf "%s:%s" f.Lint_finding.file f.Lint_finding.rule) fs));
  (* mutation 3: an allowlist entry is (rule, file)-scoped too *)
  write_file (Filename.concat root "lint.allowlist")
    "io-purity lib/planted.ml\ndeterminism lib/z_more.ml # wrong file/rule pairing\n";
  check_int "allowlist entry for another (rule, file) pair is inert" 2
    (List.length (run_exn root));
  write_file (Filename.concat root "lint.allowlist")
    "io-purity lib/planted.ml\ndeterminism lib/planted.ml\norder-stability lib/z_more.ml\n";
  check_int "covering every finding yields a clean run" 0 (List.length (run_exn root));
  (* malformed allowlist is an engine error, not a silent pass *)
  write_file (Filename.concat root "lint.allowlist") "oops\n";
  (match Lint_engine.run ~root () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed allowlist must be an error");
  List.iter Sys.remove
    [ planted; more; Filename.concat root "lint.allowlist" ];
  Sys.rmdir (Filename.concat root "lib");
  Sys.rmdir root

(* ----------------------------------------------- typed interprocedural --- *)

(* Fixture repos for the typed pass: a source tree mirrored under
   _build/default and compiled with `ocamlc -bin-annot -c` from there, so
   every cmt carries a repo-relative [cmt_sourcefile] and the source digest
   of the mirrored file — exactly the artifact layout [Lint_cmt.discover]
   expects.  The Par stub gives the fixtures real pool entry points without
   linking lib/par. *)

let typed_sources =
  [ ( "lib/par/par.ml",
      "type t = unit\n\
       let parallel_map ?(chunk = 1) (_ : t) ~f xs =\n\
      \  ignore chunk;\n\
      \  List.map f xs\n\n\
       let submit (_ : t) f = f ()\n" );
    (* cross-module race target: a bare ref behind a helper *)
    ("lib/sim/state.ml", "let total = ref 0\nlet bump x = total := !total + x\n");
    (* cross-module float carrier for poly-compare *)
    ("lib/sim/pt.ml", "type t = { x : float; y : float }\nlet origin = { x = 0.; y = 0. }\n");
    (* non-core nondeterminism source for effect-purity *)
    ("lib/util/helper.ml", "let jitter () = Random.float 1.0\n");
    (* the planted cross-module race: the closure reaches State.total via
       State.bump; the second site is pragma-sanctioned *)
    ( "lib/core/driver.ml",
      "let run pool xs = Par.parallel_map pool ~f:(fun x -> State.bump x) xs\n\
       (* lint: allow domain-race -- audited fixture *)\n\
       let run_ok pool xs = Par.parallel_map pool ~f:(fun x -> State.bump x) xs\n" );
    (* the planted float compare: Pt.t's float fields live in another file *)
    ("lib/core/use.ml", "let same (a : Pt.t) b = compare a b = 0\n");
    (* effects entering the core, one sanctioned by pragma *)
    ( "lib/core/sched.ml",
      "let plan xs = List.map (fun x -> x +. Helper.jitter ()) xs\n\
       (* lint: allow effect-purity -- audited fixture *)\n\
       let plan_ok xs = List.map (fun x -> x +. Helper.jitter ()) xs\n" );
    (* carve-out pins: test/ is exempt from the float arm only *)
    ("test/t_float.ml", "let eqf (a : float) b = compare a b = 0\n");
    ("test/t_arrow.ml", "let bad (f : int -> int) g = compare f g\n") ]

let rec ensure_dir d =
  if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Write + compile the fixture tree; returns the repo root. *)
let typed_fixture_root () =
  let root = Filename.temp_dir "memsched_typed" "" in
  let build = Filename.concat root "_build/default" in
  List.iter
    (fun (rel, src) ->
      List.iter
        (fun base ->
          let path = Filename.concat base rel in
          ensure_dir (Filename.dirname path);
          write_file path src)
        [ root; build ])
    typed_sources;
  let incs =
    List.sort_uniq String.compare (List.map (fun (rel, _) -> Filename.dirname rel) typed_sources)
    |> List.map (fun d -> "-I " ^ Filename.quote d)
    |> String.concat " "
  in
  List.iter
    (fun (rel, _) ->
      let cmd =
        Printf.sprintf "cd %s && ocamlc -bin-annot -c %s %s > /dev/null 2>&1"
          (Filename.quote build) incs (Filename.quote rel)
      in
      if Sys.command cmd <> 0 then Alcotest.failf "fixture compile failed: %s" rel)
    typed_sources;
  root

let run_typed_exn ?jobs ?cache_file root =
  match Lint_engine.run_typed ?jobs ?cache_file ~root () with
  | Ok r -> r
  | Error e -> Alcotest.failf "typed engine error: %s" e

let finding_keys fs =
  String.concat ","
    (List.map
       (fun f -> Printf.sprintf "%s:%d:%s" f.Lint_finding.file f.Lint_finding.line f.Lint_finding.rule)
       fs)

let test_typed_planted_tree () =
  let root = typed_fixture_root () in
  let cache_file = Filename.concat root "lint_cache.bin" in
  let fs, _pg, cold = run_typed_exn ~cache_file root in
  (* One finding per planted violation — the pragma'd twins and the test/
     float fixture stay silent; t_arrow pins the arrow arm applying under
     test/ too. *)
  check_string "planted typed findings"
    "lib/core/driver.ml:1:domain-race,lib/core/sched.ml:1:effect-purity,lib/core/use.ml:1:poly-compare,test/t_arrow.ml:1:poly-compare"
    (finding_keys fs);
  let race = List.find (fun f -> f.Lint_finding.rule = "domain-race") fs in
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "race names the cross-module global" true
    (contains race.Lint_finding.message "State.total");
  check_bool "race reports the witness chain" true
    (contains race.Lint_finding.message "State.bump");
  let poly = List.find (fun f -> f.Lint_finding.file = "lib/core/use.ml") fs in
  check_bool "poly names the carrier type" true (contains poly.Lint_finding.message "Pt.t");
  (* cold pass extracted every artifact *)
  check_int "cold: nothing from cache" 0 cold.Lint_engine.tp_from_cache;
  check_bool "cold: extracted the tree" true (cold.Lint_engine.tp_extracted > 0);
  (* warm pass: every module served from the content-addressed cache,
     identical output bytes *)
  let fs_warm, _, warm = run_typed_exn ~cache_file root in
  check_int "warm: zero reparses" 0 warm.Lint_engine.tp_extracted;
  check_int "warm: fully cache-served" cold.Lint_engine.tp_extracted warm.Lint_engine.tp_from_cache;
  check_string "warm output is byte-identical" (Lint_engine.render_json fs)
    (Lint_engine.render_json fs_warm);
  (* --jobs parity on the typed pass *)
  List.iter
    (fun jobs ->
      let fs_j, _, _ = run_typed_exn ~jobs ~cache_file root in
      check_string
        (Printf.sprintf "jobs=%d renders identical bytes" jobs)
        (Lint_engine.render_json fs) (Lint_engine.render_json fs_j))
    [ 1; 2; 8 ];
  (* allowlist entries suppress typed rules with (rule, file) scoping *)
  write_file (Filename.concat root "lint.allowlist") "domain-race lib/core/driver.ml\n";
  let fs_allow, _, _ = run_typed_exn ~cache_file root in
  check_string "allowlisted race disappears, rest survive"
    "lib/core/sched.ml:1:effect-purity,lib/core/use.ml:1:poly-compare,test/t_arrow.ml:1:poly-compare"
    (finding_keys fs_allow);
  Sys.remove (Filename.concat root "lint.allowlist");
  (* staleness: editing a source without rebuilding its cmt drops the module
     (and its findings) instead of reporting against stale bytes *)
  write_file (Filename.concat root "lib/core/use.ml") "let same (a : Pt.t) b = a == b\n";
  let fs_stale, _, stale = run_typed_exn ~cache_file root in
  check_int "edited-but-not-rebuilt module counts as stale" 1 stale.Lint_engine.tp_stale;
  check_string "stale module's finding is gone"
    "lib/core/driver.ml:1:domain-race,lib/core/sched.ml:1:effect-purity,test/t_arrow.ml:1:poly-compare"
    (finding_keys fs_stale)

let test_typed_effects_json () =
  let root = typed_fixture_root () in
  let _, pg, _ = run_typed_exn ~cache_file:(Filename.concat root "lint_cache.bin") root in
  let json = Lint_typed_rules.effects_json pg in
  let contains needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length json && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "summary lists the nondet source" true (contains "\"fn\":\"Helper.jitter\"");
  check_bool "kind is named" true (contains "\"nondet\"");
  check_bool "witness chain reaches the culprit" true (contains "Random.float");
  check_bool "the core caller is effectful too" true (contains "\"fn\":\"Driver.run\"" || contains "\"fn\":\"Sched.plan\"");
  check_bool "counts are emitted" true (contains "\"effectful\":" && contains "\"total\":")

let test_typed_rule_registry () =
  check_string "typed rule ids" "domain-race,effect-purity,poly-compare"
    (String.concat "," Lint_typed_rules.names);
  List.iter
    (fun name ->
      check_bool (name ^ " is documented") true (List.mem_assoc name Lint_typed_rules.docs))
    Lint_typed_rules.names

(* ------------------------------------------------------ repo self-clean --- *)

(* Same walk the lint fuzz-oracle uses: from dune's _build/default/test cwd
   this resolves to the checkout root.  Running the full linter here makes
   any new violation fail `dune runtest` — the tier-1 gate of the issue. *)
let repo_root () =
  let rec up dir n =
    if n > 8 then None
    else if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "lint.allowlist")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent (n + 1)
  in
  up (Sys.getcwd ()) 0

let test_repo_is_lint_clean () =
  match repo_root () with
  | None -> Alcotest.fail "repo root (dune-project + lint.allowlist) not found from cwd"
  | Some root -> (
    match Lint_engine.run ~root () with
    | Error e -> Alcotest.failf "lint engine error: %s" e
    | Ok [] -> ()
    | Ok fs ->
      Alcotest.failf "the tree must stay lint-clean; fix or annotate:\n%s"
        (Lint_engine.render_text fs))

let () =
  Alcotest.run "lint"
    [ ( "rules",
        [ Alcotest.test_case "registry covered" `Quick test_registry_covered;
          Alcotest.test_case "each rule fires at file:line:col" `Quick test_rules_fire;
          Alcotest.test_case "path carve-outs" `Quick test_path_carveouts;
          Alcotest.test_case "io-purity covers the writers" `Quick test_io_purity_covers_writers;
          Alcotest.test_case "unsafe CSR indexing" `Quick test_unsafe_array_rule;
          Alcotest.test_case "negatives stay clean" `Quick test_negatives;
          Alcotest.test_case "record-float-field compare gap" `Quick test_float_field_compare_gap;
          Alcotest.test_case "mutex pairing" `Quick test_mutex_rule;
          Alcotest.test_case "--rule selection" `Quick test_rule_selection;
          Alcotest.test_case "parse failure is a finding" `Quick test_parse_failure_is_a_finding ]
      );
      ( "suppression",
        [ Alcotest.test_case "same-line pragma" `Quick test_rules_suppressed_same_line;
          Alcotest.test_case "preceding-line pragma" `Quick test_rules_suppressed_previous_line;
          Alcotest.test_case "pragma scoped to one rule" `Quick test_suppression_scoped_to_rule;
          Alcotest.test_case "pragma reach is two lines" `Quick test_pragma_two_lines_only ] );
      ("render", [ Alcotest.test_case "text and json forms" `Quick test_renderers ]);
      ( "allowlist",
        [ Alcotest.test_case "parse" `Quick test_allowlist_parse;
          Alcotest.test_case "filter is (rule, file)-scoped" `Quick test_allowlist_filter_scoped ]
      );
      ( "engine",
        [ Alcotest.test_case "planted tree end to end" `Quick test_engine_planted_tree ] );
      ( "typed",
        [ Alcotest.test_case "typed rule registry" `Quick test_typed_rule_registry;
          Alcotest.test_case "planted cmt tree end to end" `Quick test_typed_planted_tree;
          Alcotest.test_case "effects json summary" `Quick test_typed_effects_json ] );
      ("self", [ Alcotest.test_case "repo is lint-clean" `Quick test_repo_is_lint_clean ]) ]
