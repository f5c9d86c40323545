type verdict = Pass | Fail of string list | Skip of string

type config = {
  eps : float;
  exact_node_limit : int;
  exact_task_limit : int;
  jobs_task_limit : int;
}

let default_config =
  { eps = 1e-6; exact_node_limit = 60_000; exact_task_limit = 7; jobs_task_limit = 14 }

type t = {
  name : string;
  doc : string;
  check : config -> Fuzz_instance.t -> verdict;
}

(* --------------------------------------------------------------- helpers --- *)

let heuristic_names = Heuristics.all_names @ Heuristics.extension_names

let verdict_of_errors = function [] -> Pass | errs -> Fail (List.rev errs)

(* Bit-identical float equality, spelled with [Float.compare] so the exact
   (NaN-tolerant, tolerance-free) semantics is explicit: these are the
   determinism oracles, where an eps would *weaken* the check. *)
let float_array_equal a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> Float.compare x y = 0) a b

let float_opt_array_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (Option.equal (fun x y -> Float.compare x y = 0)) a b

let schedules_equal (a : Schedule.t) (b : Schedule.t) =
  float_array_equal a.Schedule.starts b.Schedule.starts
  && compare a.Schedule.procs b.Schedule.procs = 0
  && float_opt_array_equal a.Schedule.comm_starts b.Schedule.comm_starts

(* ---------------------------------------------------------------- oracles --- *)

(* Every schedule a heuristic returns must pass the full SS 3 oracle. *)
let o_validator =
  let check cfg (i : Fuzz_instance.t) =
    let errs = ref [] in
    List.iter
      (fun name ->
        match Heuristics.run name i.Fuzz_instance.dag i.Fuzz_instance.platform with
        | Error _ -> ()
        | Ok s -> (
          match
            Validator.validate ~eps:cfg.eps i.Fuzz_instance.dag
              (Heuristics.validation_platform name i.Fuzz_instance.platform)
              s
          with
          | Ok _ -> ()
          | Error messages ->
            errs :=
              Printf.sprintf "%s: invalid schedule: %s" (Heuristics.name_to_string name)
                (String.concat "; " messages)
              :: !errs))
      heuristic_names;
    verdict_of_errors !errs
  in
  { name = "validator"; doc = "every returned schedule passes the full validity oracle"; check }

(* No heuristic may beat the critical-path / work-area lower bound. *)
let o_lower_bound =
  let check cfg (i : Fuzz_instance.t) =
    let g = i.Fuzz_instance.dag and p = i.Fuzz_instance.platform in
    let lb = Lower_bound.makespan g p in
    let tol = cfg.eps *. (1. +. Float.abs lb) in
    let errs = ref [] in
    List.iter
      (fun name ->
        match Heuristics.run name g p with
        | Error _ -> ()
        | Ok s ->
          let ms = Schedule.makespan g (Heuristics.validation_platform name p) s in
          if ms +. tol < lb then
            errs :=
              Printf.sprintf "%s: makespan %.17g beats the lower bound %.17g"
                (Heuristics.name_to_string name) ms lb
              :: !errs)
      heuristic_names;
    verdict_of_errors !errs
  in
  { name = "lower-bound"; doc = "no heuristic makespan beats the makespan lower bound"; check }

(* The optimised schedulers must be bit-identical to the verbatim
   pre-optimisation implementations kept as *_reference. *)
let o_reference =
  let check _cfg (i : Fuzz_instance.t) =
    let g = i.Fuzz_instance.dag and p = i.Fuzz_instance.platform in
    let pair name fast slow =
      match (fast, slow) with
      | Ok a, Ok b when schedules_equal a b -> None
      | Error (a : Heuristics.failure), Error b
        when a.Heuristics.reason = b.Heuristics.reason
             && a.Heuristics.n_scheduled = b.Heuristics.n_scheduled -> None
      | Ok _, Ok _ -> Some (name ^ ": optimised and reference schedules differ")
      | Error _, Error _ -> Some (name ^ ": optimised and reference failures differ")
      | Ok _, Error _ -> Some (name ^ ": optimised succeeds where the reference fails")
      | Error _, Ok _ -> Some (name ^ ": optimised fails where the reference succeeds")
    in
    let errs =
      List.filter_map Fun.id
        [ pair "memheft" (Heuristics.memheft g p) (Heuristics.memheft_reference g p);
          pair "memminmin" (Heuristics.memminmin g p) (Heuristics.memminmin_reference g p) ]
    in
    verdict_of_errors (List.rev errs)
  in
  { name = "reference-agreement";
    doc = "optimised hot path agrees bit-for-bit with the *_reference implementations";
    check }

(* On tiny instances the exact solver's proven optimum must dominate every
   heuristic, and its own schedule must validate. *)
let o_exact =
  let check cfg (i : Fuzz_instance.t) =
    let g = i.Fuzz_instance.dag and p = i.Fuzz_instance.platform in
    if Dag.n_tasks g > cfg.exact_task_limit then Skip "instance above the exact-solver size cap"
    else begin
      let r = Exact.solve ~node_limit:cfg.exact_node_limit g p in
      let errs = ref [] in
      (match r.Exact.schedule with
      | None -> ()
      | Some s -> (
        match Validator.validate ~eps:cfg.eps g p s with
        | Ok _ -> ()
        | Error messages ->
          errs :=
            Printf.sprintf "exact: invalid schedule: %s" (String.concat "; " messages) :: !errs));
      (match r.Exact.status with
      | Exact.Proven_optimal ->
        let tol = cfg.eps *. (1. +. Float.abs r.Exact.makespan) in
        let lb = Lower_bound.makespan g p in
        if r.Exact.makespan +. tol < lb then
          errs :=
            Printf.sprintf "exact: optimum %.17g beats the lower bound %.17g" r.Exact.makespan lb
            :: !errs;
        List.iter
          (fun name ->
            if Heuristics.is_memory_aware name then
              match Heuristics.run name g p with
              | Error _ -> ()
              | Ok s ->
                let ms = Schedule.makespan g p s in
                if ms +. tol < r.Exact.makespan then
                  errs :=
                    Printf.sprintf "%s: makespan %.17g beats the proven optimum %.17g"
                      (Heuristics.name_to_string name) ms r.Exact.makespan
                    :: !errs)
          heuristic_names
      | Exact.Feasible | Exact.Proven_infeasible | Exact.Unknown -> ());
      verdict_of_errors !errs
    end
  in
  { name = "exact-dominates";
    doc = "a proven optimum lower-bounds every heuristic on tiny instances";
    check }

(* Three independent routes to the same optimum must agree: the overhauled
   commit/undo branch-and-bound ([Exact.solve]), the per-node-copy reference
   search kept verbatim from before the overhaul ([Exact.solve_reference]),
   and — on the tiniest instances with finite memory caps — the paper's ILP
   through the built-in MIP.  Budget-capped verdicts constrain nothing, but
   a proven optimum on one route must never contradict a proven optimum or a
   proven infeasibility on another. *)
let o_exact_agreement =
  let check cfg (i : Fuzz_instance.t) =
    let g = i.Fuzz_instance.dag and p = i.Fuzz_instance.platform in
    if Dag.n_tasks g > cfg.exact_task_limit then Skip "instance above the exact-solver size cap"
    else begin
      let errs = ref [] in
      let r_undo = Exact.solve ~node_limit:cfg.exact_node_limit g p in
      let r_ref = Exact.solve_reference ~node_limit:cfg.exact_node_limit g p in
      (match (r_undo.Exact.status, r_ref.Exact.status) with
      | Exact.Proven_optimal, Exact.Proven_optimal ->
        let tol = cfg.eps *. (1. +. Float.abs r_ref.Exact.makespan) in
        if Float.abs (r_undo.Exact.makespan -. r_ref.Exact.makespan) > tol then
          errs :=
            Printf.sprintf "undo %.17g vs reference %.17g proven optima differ"
              r_undo.Exact.makespan r_ref.Exact.makespan
            :: !errs
      | Exact.Proven_infeasible, (Exact.Proven_optimal | Exact.Feasible)
      | (Exact.Proven_optimal | Exact.Feasible), Exact.Proven_infeasible ->
        errs := "undo and reference searches disagree on feasibility" :: !errs
      | _ -> ());
      (* ILP leg: tiny models only (the MIP is exponential), and the paper's
         ILP needs finite caps.  Seeding with the exact optimum (plus a hair)
         makes a wrong-low exact makespan surface as MIP infeasibility and a
         wrong-high one as a cheaper MIP optimum. *)
      let finite_caps =
        Float.is_finite (Platform.capacity p Platform.Blue)
        && Float.is_finite (Platform.capacity p Platform.Red)
      in
      if Dag.n_tasks g <= 3 && Platform.n_procs p <= 3 && finite_caps then begin
        let model = Ilp_model.build g p in
        let seed =
          match r_undo.Exact.status with
          | Exact.Proven_optimal -> Some (r_undo.Exact.makespan +. 1e-3)
          | _ -> None
        in
        let sol = Mip.solve ~node_limit:300 ?incumbent:seed (Ilp_model.lp model) in
        let mip_tol = 1e-5 *. (1. +. Float.abs r_undo.Exact.makespan) in
        match (r_undo.Exact.status, sol.Mip.status, sol.Mip.incumbent) with
        | Exact.Proven_optimal, Mip.Optimal, Some (_, obj) ->
          if Float.abs (obj -. r_undo.Exact.makespan) > mip_tol then
            errs :=
              Printf.sprintf "MIP optimum %.17g vs exact optimum %.17g differ" obj
                r_undo.Exact.makespan
              :: !errs
        | Exact.Proven_optimal, Mip.Infeasible, _ ->
          errs := "MIP proves infeasible below the exact optimum" :: !errs
        | Exact.Proven_infeasible, Mip.Optimal, Some (x, obj) -> (
          (* The LP tolerates dust-level capacity violations, so an instance
             sitting within [eps] of the feasibility boundary (the
             just-below-peak fuzz regime) can legitimately flip between the
             two solvers.  Only a MIP schedule that fits with a clear margin
             contradicts the exact infeasibility proof. *)
          let s = Ilp_model.extract_schedule model x in
          match Validator.validate ~eps:cfg.eps g p s with
          | Error _ -> ()
          | Ok v ->
            let margin m peak = peak <= Platform.capacity p m -. cfg.eps in
            if margin Platform.Blue v.Validator.peak_blue
               && margin Platform.Red v.Validator.peak_red then
              errs :=
                Printf.sprintf
                  "MIP optimum %.17g (schedule fits with margin) on an exact-proven-infeasible \
                   instance"
                  obj
                :: !errs)
        | _ -> ()
      end;
      verdict_of_errors !errs
    end
  in
  { name = "exact-agreement";
    doc = "commit/undo search, per-node-copy reference and the ILP agree on tiny instances";
    check }

(* Cross-examine reported infeasibility: a heuristic refusal is legitimate
   (the heuristics are incomplete), but a proven-infeasible instance must be
   refused by every memory-aware heuristic, and an instance that is provably
   infeasible by the single-task memory argument must defeat the exact
   search too. *)
let o_infeasibility =
  let check cfg (i : Fuzz_instance.t) =
    let g = i.Fuzz_instance.dag and p = i.Fuzz_instance.platform in
    if Dag.n_tasks g > cfg.exact_task_limit then Skip "instance above the exact-solver size cap"
    else begin
      let errs = ref [] in
      (* The schedulers and the validator are eps-tolerant (usage may exceed
         a cap by up to [eps]), so the strict certificate
         [Lower_bound.provably_infeasible] only contradicts them when the
         cap is below the single-task minimum by more than [eps] — an
         instance sitting inside the tolerance band is legitimately
         schedulable.  Found by the fuzzer itself (corpus entry
         infeasibility-seed42-7e7cd8ee). *)
      let cap = Float.max (Platform.capacity p Platform.Blue) (Platform.capacity p Platform.Red) in
      let provably = cap +. cfg.eps < Lower_bound.min_memory g in
      let r = Exact.solve ~node_limit:cfg.exact_node_limit g p in
      if provably && Option.is_some r.Exact.schedule then
        errs := "exact: found a schedule on a provably infeasible instance" :: !errs;
      if provably || r.Exact.status = Exact.Proven_infeasible then
        List.iter
          (fun name ->
            if Heuristics.is_memory_aware name then
              match Heuristics.run name g p with
              | Error _ -> ()
              | Ok _ ->
                errs :=
                  Printf.sprintf "%s: schedules an instance proven infeasible"
                    (Heuristics.name_to_string name)
                  :: !errs)
          heuristic_names;
      verdict_of_errors !errs
    end
  in
  { name = "infeasibility";
    doc = "reported infeasibility is cross-examined against exact feasibility";
    check }

(* The DAG and instance text formats must round-trip exactly. *)
let o_serialization =
  let check _cfg (i : Fuzz_instance.t) =
    let errs = ref [] in
    let g = i.Fuzz_instance.dag in
    (try
       let g' = Dag.of_string (Dag.to_string g) in
       (* lint: allow poly-compare -- round-trip oracle wants bit-identical structure *)
       if compare (Dag.tasks g) (Dag.tasks g') <> 0 then errs := "dag round-trip: tasks differ" :: !errs;
       (* lint: allow poly-compare -- round-trip oracle wants bit-identical structure *)
       if compare (Dag.edges g) (Dag.edges g') <> 0 then errs := "dag round-trip: edges differ" :: !errs
     with Invalid_argument m -> errs := ("dag round-trip: " ^ m) :: !errs);
    (try
       let i' = Fuzz_instance.of_string (Fuzz_instance.to_string i) in
       if Fuzz_instance.to_string i <> Fuzz_instance.to_string i' then
         errs := "instance round-trip: text differs" :: !errs
     with Invalid_argument m -> errs := ("instance round-trip: " ^ m) :: !errs);
    verdict_of_errors !errs
  in
  { name = "serialization"; doc = "DAG and instance text formats round-trip exactly"; check }

(* The daemon's binary codec (lib/serve): encode→decode→encode must be a
   byte-level fixpoint on every message this instance can produce, decoding
   must be total (an error value, never an exception, never a hang) on
   truncated and corrupted bytes, and the cache key must quotient out
   exactly the request id — nothing more, nothing less. *)
let o_wire =
  let algo_label = function
    | Wire.Heuristic h -> Heuristics.name_to_string h
    | Wire.Multistart -> "multistart"
    | Wire.Exact -> "exact"
  in
  let flip s pos =
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
    Bytes.unsafe_to_string b
  in
  let check cfg (i : Fuzz_instance.t) =
    let g = i.Fuzz_instance.dag and p = i.Fuzz_instance.platform in
    let errs = ref [] in
    let fail fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
    let fixpoint what payload =
      match Wire.decode_message payload with
      | Error e -> fail "%s: decode failed: %s" what (Wire.error_to_string e)
      | Ok m -> if Wire.encode_message m <> payload then fail "%s: encode∘decode is not the identity" what
      | exception e -> fail "%s: decoder raised %s" what (Printexc.to_string e)
    in
    let total what payload =
      match Wire.decode_message payload with
      | Ok _ | Error _ -> ()
      | exception e -> fail "%s: decoder raised %s" what (Printexc.to_string e)
    in
    let algos = List.map (fun h -> Wire.Heuristic h) heuristic_names @ [ Wire.Multistart; Wire.Exact ] in
    let request algo =
      { Wire.id = 9000L; algo; seed = 77L; restarts = 2;
        node_limit = cfg.exact_node_limit; platform = p; dag = g }
    in
    List.iter
      (fun algo ->
        let req = request algo in
        let payload = Wire.encode_message (Wire.Request req) in
        fixpoint (Printf.sprintf "request/%s" (algo_label algo)) payload;
        (* The id — and only the id — is quotiented out of the cache key. *)
        let other_id = Wire.encode_message (Wire.Request { req with Wire.id = 4242L }) in
        if Wire.cache_key payload <> Wire.cache_key other_id then
          fail "request/%s: cache key depends on the request id" (algo_label algo);
        let other_seed = Wire.encode_message (Wire.Request { req with Wire.seed = 78L }) in
        if Wire.cache_key payload = Wire.cache_key other_seed then
          fail "request/%s: cache key ignores the seed" (algo_label algo);
        (* Response leg: run the daemon's dispatcher and round-trip its
           answer.  Exact only on instances under the size cap. *)
        let run_response =
          match algo with Wire.Exact -> Dag.n_tasks g <= cfg.exact_task_limit | _ -> true
        in
        if run_response then begin
          let body = Serve_dispatch.compute req in
          let full = Wire.encode_message (Wire.Response { Wire.rid = req.Wire.id; body }) in
          fixpoint (Printf.sprintf "response/%s" (algo_label algo)) full;
          (* The cache stores id-free bodies; reassembly must agree with
             the one-shot encoder for any id. *)
          if Wire.response_payload ~rid:req.Wire.id (Wire.encode_body body) <> full then
            fail "response/%s: response_payload disagrees with encode_message" (algo_label algo)
        end)
      algos;
    (* Totality on malformed bytes, derived deterministically from a real
       request payload. *)
    let payload = Wire.encode_message (Wire.Request (request (Wire.Heuristic Heuristics.MemHEFT))) in
    let len = String.length payload in
    for cut = 0 to min 6 (len - 1) do
      total (Printf.sprintf "truncated-at-%d" cut) (String.sub payload 0 cut)
    done;
    total "truncated-at-end" (String.sub payload 0 (len - 1));
    total "trailing-byte" (payload ^ "\x00");
    (match Wire.decode_message (flip payload 0) with
    | Error (Wire.Bad_version _) -> ()
    | Ok _ | Error _ -> fail "bad version byte not rejected as Bad_version"
    | exception e -> fail "bad-version: decoder raised %s" (Printexc.to_string e));
    (match Wire.decode_message (flip payload 1) with
    | Error (Wire.Bad_kind _) -> ()
    | Ok _ | Error _ -> fail "bad kind byte not rejected as Bad_kind"
    | exception e -> fail "bad-kind: decoder raised %s" (Printexc.to_string e));
    let step = max 1 (len / 32) in
    let pos = ref 2 in
    while !pos < len do
      total (Printf.sprintf "flip-at-%d" !pos) (flip payload !pos);
      pos := !pos + step
    done;
    (* Framing: a declared length above the bound is rejected before any
       allocation; a stream cut mid-frame is Truncated. *)
    let huge = Bytes.create 8 in
    Bytes.set_int32_be huge 0 (Int32.of_int (Wire.max_frame + 1));
    (match Wire.next_frame (Bytes.unsafe_to_string huge) ~pos:0 with
    | Error (Wire.Oversized _) -> ()
    | Ok _ | Error _ -> fail "oversized declared length not rejected as Oversized"
    | exception e -> fail "oversized: next_frame raised %s" (Printexc.to_string e));
    let framed = Wire.frame payload in
    (match Wire.decode_stream (String.sub framed 0 (String.length framed - 1)) with
    | Error Wire.Truncated -> ()
    | Ok _ | Error _ -> fail "stream cut mid-frame not rejected as Truncated"
    | exception e -> fail "mid-frame cut: decode_stream raised %s" (Printexc.to_string e));
    (match Wire.decode_stream (framed ^ framed) with
    | Ok [ Wire.Request _; Wire.Request _ ] -> ()
    | Ok _ | Error _ -> fail "two consecutive frames do not decode to two requests"
    | exception e -> fail "two frames: decode_stream raised %s" (Printexc.to_string e));
    verdict_of_errors !errs
  in
  { name = "wire-roundtrip";
    doc = "the daemon's binary codec is a byte-level fixpoint and total on malformed input";
    check }

(* The campaign combinators must be bit-identical for every jobs count. *)
let o_jobs_invariance =
  let check cfg (i : Fuzz_instance.t) =
    let g = i.Fuzz_instance.dag and p = i.Fuzz_instance.platform in
    if Dag.n_tasks g > cfg.jobs_task_limit then Skip "instance above the jobs-check size cap"
    else begin
      let errs = ref [] in
      let with_jobs jobs f = Par.with_pool ~jobs f in
      (* Multistart over the pool. *)
      let m1 = with_jobs 1 (fun pool -> Multistart.memheft ~pool ~restarts:3 g p) in
      let m2 = with_jobs 2 (fun pool -> Multistart.memheft ~pool ~restarts:3 g p) in
      let same =
        m1.Multistart.n_feasible = m2.Multistart.n_feasible
        && m1.Multistart.n_runs = m2.Multistart.n_runs
        && List.equal
             (fun a b -> Float.compare a b = 0)
             m1.Multistart.makespans m2.Multistart.makespans
        &&
        match (m1.Multistart.best, m2.Multistart.best) with
        | Ok a, Ok b -> schedules_equal a b
        | Error a, Error b -> a.Heuristics.reason = b.Heuristics.reason
        | _ -> false
      in
      if not same then errs := "multistart: results differ between jobs=1 and jobs=2" :: !errs;
      (* A miniature campaign sweep, aggregated to CSV rows. *)
      let sweep jobs =
        with_jobs jobs (fun pool ->
            let b = Sweep.baseline p g in
            let aggs =
              Sweep.normalized_sweep ~pool p ~alphas:[ 0.5; 1.0 ] Heuristics.MemHEFT [ b ]
            in
            List.map
              (fun (a : Sweep.aggregate) ->
                Csv.row_to_string
                  [ Csv.float_cell a.Sweep.alpha;
                    Printf.sprintf "%.17g" a.Sweep.success_rate;
                    Printf.sprintf "%.17g" a.Sweep.mean_ratio ])
              aggs)
      in
      if compare (sweep 1) (sweep 2) <> 0 then
        errs := "sweep: campaign CSV rows differ between jobs=1 and jobs=2" :: !errs;
      verdict_of_errors !errs
    end
  in
  { name = "jobs-invariance";
    doc = "multistart and campaign CSV rows are bit-identical across jobs counts";
    check }

(* The static harness as a dynamic oracle: `check --oracle lint` (and every
   full-registry campaign) asserts the repository itself stays lint-clean,
   keeping the static and differential checks in one CLI.  The verdict is a
   pure function of the source tree, not of the fuzz instance, so it is
   computed once and memoised — through an Atomic, since oracles run on pool
   domains (the exact domain-safety discipline the rule enforces). *)
let lint_repo_root () =
  let is_root dir =
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "lint.allowlist")
  in
  let rec up dir depth =
    if depth > 8 then None
    else if is_root dir then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent (depth + 1)
  in
  up (Sys.getcwd ()) 0

let lint_verdict : verdict option Atomic.t = Atomic.make None

let o_lint =
  let compute () =
    match lint_repo_root () with
    | None -> Skip "repo root (dune-project + lint.allowlist) not reachable from cwd"
    | Some root -> (
      match Lint_engine.run ~root () with
      | Error msg -> Fail [ msg ]
      | Ok [] -> Pass
      | Ok findings -> Fail (List.map Lint_finding.to_text findings))
  in
  let check _cfg (_ : Fuzz_instance.t) =
    match Atomic.get lint_verdict with
    | Some v -> v
    | None ->
      let v = compute () in
      (* A racing domain computed the same pure verdict; either wins. *)
      ignore (Atomic.compare_and_set lint_verdict None (Some v));
      v
  in
  { name = "lint"; doc = "the source tree stays clean under the lib/lint static-analysis rules"; check }

(* ---------------------------------------------------- scenario oracles --- *)

let online_algos = [ Online.Heft_like; Online.Minmin_like ]

let online_arrivals seed =
  [ Arrival.Batch; Arrival.Layered { gap = 1.5 }; Arrival.Jittered { gap = 1.5; seed } ]

(* Replaying a plan under zero noise must reproduce it bit-for-bit: the
   perturbation is the identity at level 0 by construction, so any
   difference means the replay engine's estimates or lifts disagree with the
   planner's own — exactly the drift this oracle exists to catch. *)
let o_noise0_fixpoint =
  let check _cfg (i : Fuzz_instance.t) =
    let g = i.Fuzz_instance.dag and p = i.Fuzz_instance.platform in
    let realized = Noise.perturb (Noise.spec ~seed:1 ~level:0. ()) g in
    let errs = ref [] in
    List.iter
      (fun algo ->
        List.iter
          (fun arrival ->
            let tag =
              Printf.sprintf "%s/%s" (Online.algo_label algo) (Arrival.label arrival)
            in
            match Online.plan ~algo ~arrival g p with
            | Error _ -> ()  (* infeasible under the caps: nothing to replay *)
            | Ok plan -> (
              match Replay.run ~policy:Replay.No_repair plan realized p with
              | Error f ->
                errs := Printf.sprintf "%s: zero-noise replay diverged: %s" tag f.Heuristics.reason :: !errs
              | Ok o ->
                if not (schedules_equal plan.Online.p_schedule o.Replay.o_schedule) then
                  errs := Printf.sprintf "%s: zero-noise replay differs from the plan" tag :: !errs;
                if o.Replay.o_repaired <> 0 then
                  errs := Printf.sprintf "%s: zero-noise replay repaired %d tasks" tag o.Replay.o_repaired :: !errs))
          (online_arrivals 11))
      online_algos;
    verdict_of_errors !errs
  in
  { name = "noise0-fixpoint";
    doc = "a zero-noise replay reproduces the committed plan bit-for-bit";
    check }

(* An online planner sees less than the offline one and commits irrevocably,
   so it can never beat the offline makespan lower bound; its planned
   schedules must also pass the full validity oracle. *)
let o_online_dominance =
  let check cfg (i : Fuzz_instance.t) =
    let g = i.Fuzz_instance.dag and p = i.Fuzz_instance.platform in
    let lb = Lower_bound.makespan g p in
    let tol = cfg.eps *. (1. +. Float.abs lb) in
    let errs = ref [] in
    List.iter
      (fun algo ->
        List.iter
          (fun arrival ->
            let tag =
              Printf.sprintf "%s/%s" (Online.algo_label algo) (Arrival.label arrival)
            in
            match Online.plan ~algo ~arrival g p with
            | Error _ -> ()
            | Ok plan ->
              if plan.Online.p_makespan +. tol < lb then
                errs :=
                  Printf.sprintf "%s: online makespan %.17g beats the offline lower bound %.17g"
                    tag plan.Online.p_makespan lb
                  :: !errs;
              (match Validator.validate ~eps:cfg.eps g p plan.Online.p_schedule with
              | Ok _ -> ()
              | Error messages ->
                errs :=
                  Printf.sprintf "%s: invalid planned schedule: %s" tag
                    (String.concat "; " messages)
                  :: !errs))
          (online_arrivals 23))
      online_algos;
    verdict_of_errors !errs
  in
  { name = "online-dominance";
    doc = "online planners never beat the offline lower bound and their plans validate";
    check }

(* The plan → perturb → replay pipeline must be bit-identical for every
   jobs count: the degradation campaigns fan out over (seed, policy) grids
   and their CSV rows are the published artefact. *)
let o_replay_determinism =
  let check cfg (i : Fuzz_instance.t) =
    let g = i.Fuzz_instance.dag and p = i.Fuzz_instance.platform in
    if Dag.n_tasks g > cfg.jobs_task_limit then Skip "instance above the jobs-check size cap"
    else begin
      let sc =
        {
          Scenario.default_config with
          Scenario.arrival = Arrival.Jittered { gap = 1.; seed = 7 };
          noise_level = 0.3;
          noise_seeds = [ 0; 1; 2 ];
        }
      in
      let instances = [ (i.Fuzz_instance.label, g) ] in
      let digest rows =
        String.concat "\n" (List.map (fun r -> Csv.row_to_string (Scenario.csv_row sc r)) rows)
      in
      let serial = digest (fst (Scenario.run sc instances p)) in
      let errs = ref [] in
      List.iter
        (fun jobs ->
          let rows, _ = Par.with_pool ~jobs (fun pool -> Scenario.run ~pool sc instances p) in
          if digest rows <> serial then
            errs := Printf.sprintf "degradation rows differ between serial and jobs=%d" jobs :: !errs)
        [ 1; 2; 8 ];
      verdict_of_errors !errs
    end
  in
  { name = "replay-determinism";
    doc = "degradation campaign rows are bit-identical across jobs counts";
    check }

(* The flat verification pipeline must be bit-identical to the verbatim
   pre-flattening implementations kept as *_reference: validator reports
   (verdict, every message, message order — also on deterministically
   corrupted schedules that exercise each error phase), the memory-trace
   arrays, every stats field, and the parallel validator vs the serial one. *)
let o_sim_parity =
  let report_equal a b =
    match (a, b) with
    | Ok (ra : Validator.report), Ok (rb : Validator.report) ->
      Float.compare ra.Validator.makespan rb.Validator.makespan = 0
      && Float.compare ra.Validator.peak_blue rb.Validator.peak_blue = 0
      && Float.compare ra.Validator.peak_red rb.Validator.peak_red = 0
    | Error ea, Error eb -> List.equal String.equal ea eb
    | _ -> false
  in
  let per_proc_equal (a : Sched_stats.per_proc) (b : Sched_stats.per_proc) =
    a.Sched_stats.proc = b.Sched_stats.proc
    && a.Sched_stats.memory = b.Sched_stats.memory
    && a.Sched_stats.n_tasks = b.Sched_stats.n_tasks
    && Float.compare a.Sched_stats.busy b.Sched_stats.busy = 0
    && Float.compare a.Sched_stats.idle b.Sched_stats.idle = 0
  in
  let stats_equal (a : Sched_stats.t) (b : Sched_stats.t) =
    Float.compare a.Sched_stats.makespan b.Sched_stats.makespan = 0
    && Float.compare a.Sched_stats.total_work b.Sched_stats.total_work = 0
    && List.equal per_proc_equal a.Sched_stats.per_proc b.Sched_stats.per_proc
    && Float.compare a.Sched_stats.mean_utilisation b.Sched_stats.mean_utilisation = 0
    && a.Sched_stats.n_transfers = b.Sched_stats.n_transfers
    && Float.compare a.Sched_stats.transfer_volume b.Sched_stats.transfer_volume = 0
    && Float.compare a.Sched_stats.transfer_time b.Sched_stats.transfer_time = 0
    && Float.compare a.Sched_stats.peak_blue b.Sched_stats.peak_blue = 0
    && Float.compare a.Sched_stats.peak_red b.Sched_stats.peak_red = 0
    && Float.compare a.Sched_stats.avg_blue b.Sched_stats.avg_blue = 0
    && Float.compare a.Sched_stats.avg_red b.Sched_stats.avg_red = 0
    && a.Sched_stats.tasks_on_blue = b.Sched_stats.tasks_on_blue
    && a.Sched_stats.tasks_on_red = b.Sched_stats.tasks_on_red
  in
  let check cfg (i : Fuzz_instance.t) =
    let g = i.Fuzz_instance.dag and p = i.Fuzz_instance.platform in
    let errs = ref [] in
    let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
    let copy (s : Schedule.t) =
      {
        Schedule.starts = Array.copy s.Schedule.starts;
        procs = Array.copy s.Schedule.procs;
        comm_starts = Array.copy s.Schedule.comm_starts;
      }
    in
    let check_schedule tag s =
      if
        not
          (report_equal
             (Validator.validate ~eps:cfg.eps g p s)
             (Validator.validate_reference ~eps:cfg.eps g p s))
      then err "%s: flat and reference validator reports differ" tag
    in
    List.iter
      (fun name ->
        match Heuristics.run name g p with
        | Error _ -> ()
        | Ok s ->
          let tag = Heuristics.name_to_string name in
          (* Intact schedule: reports, trace and stats.  Memory-oblivious
             heuristics validated against the bounded platform on purpose —
             their memory errors exercise the report-order parity. *)
          check_schedule tag s;
          let ta = Events.memory_trace g p s and tb = Events.memory_trace_reference g p s in
          if
            not
              (float_array_equal ta.Events.times tb.Events.times
              && float_array_equal ta.Events.blue tb.Events.blue
              && float_array_equal ta.Events.red tb.Events.red)
          then err "%s: flat and reference memory traces differ" tag;
          if not (stats_equal (Sched_stats.compute g p s) (Sched_stats.compute_reference g p s))
          then err "%s: flat and reference stats differ" tag;
          (* Deterministic corruptions, one per error phase. *)
          if Dag.n_tasks g > 0 then begin
            List.iter
              (fun (ctag, mutate) ->
                let s' = copy s in
                mutate s';
                check_schedule (tag ^ "/" ^ ctag) s')
              [ ("neg-start", fun s' -> s'.Schedule.starts.(0) <- -1.);
                ("bad-proc", fun s' -> s'.Schedule.procs.(0) <- Platform.n_procs p);
                ( "collapse",
                  fun s' ->
                    Array.fill s'.Schedule.starts 0 (Array.length s'.Schedule.starts) 0.;
                    Array.fill s'.Schedule.procs 0 (Array.length s'.Schedule.procs) 0;
                    Array.fill s'.Schedule.comm_starts 0 (Array.length s'.Schedule.comm_starts) None
                ) ];
            if Dag.n_edges g > 0 then begin
              let s' = copy s in
              (s'.Schedule.comm_starts.(0) <-
                (match s'.Schedule.comm_starts.(0) with Some _ -> None | None -> Some 0.));
              check_schedule (tag ^ "/flip-transfer") s'
            end
          end;
          (* The parallel validator agrees with the serial one. *)
          if Dag.n_tasks g <= cfg.jobs_task_limit then begin
            let serial = Validator.validate ~eps:cfg.eps g p s in
            let pooled =
              Par.with_pool ~jobs:2 (fun pool -> Validator.validate ~eps:cfg.eps ~pool g p s)
            in
            if not (report_equal serial pooled) then
              err "%s: validator report differs between serial and jobs=2" tag
          end)
      heuristic_names;
    verdict_of_errors !errs
  in
  { name = "sim-parity";
    doc = "flat validator/trace/stats agree bit-for-bit with the *_reference pipeline";
    check }

let all =
  [ o_validator; o_lower_bound; o_reference; o_exact; o_exact_agreement; o_infeasibility;
    o_serialization; o_wire; o_jobs_invariance; o_sim_parity; o_noise0_fixpoint;
    o_online_dominance; o_replay_determinism; o_lint ]

let names = List.map (fun o -> o.name) all
let find name = List.find_opt (fun o -> o.name = name) all
