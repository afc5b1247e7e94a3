open Sekvm

type check = { c_name : string; c_ok : bool; c_detail : string }

type report = { r_entry : string; r_checks : check list }

let ok r = List.for_all (fun c -> c.c_ok) r.r_checks

let vs v = Diag.verdict_name v

(* static Pass ⇒ dynamic holds; static Fail ⇒ dynamic fails; Unknown ⇒
   the dynamic outcome matches the pinned expectation, when there is
   one. *)
let agree name verdict ~dynamic ~expected =
  match verdict with
  | Diag.Pass ->
      { c_name = name;
        c_ok = dynamic;
        c_detail =
          Printf.sprintf "static pass, dynamic %s"
            (if dynamic then "holds" else "FAILS (unsound!)") }
  | Diag.Fail ->
      { c_name = name;
        c_ok = not dynamic;
        c_detail =
          Printf.sprintf "static fail, dynamic %s"
            (if dynamic then "HOLDS (no witness!)" else "fails") }
  | Diag.Unknown -> (
      match expected with
      | None ->
          { c_name = name;
            c_ok = true;
            c_detail = "static unknown, dynamic not binding" }
      | Some expected ->
          { c_name = name;
            c_ok = dynamic = expected;
            c_detail =
              Printf.sprintf "static unknown, dynamic %s expectation"
                (if dynamic = expected then "matches" else "CONTRADICTS") })

let program ?expect ~exempt ~initial_owners (a : Driver.t)
    (prog : Memmodel.Prog.t) : check list =
  let expected f = Option.map f expect in
  (* 1. DRF: lockset + ownership vs the ownership-instrumented SC run *)
  let drf_static =
    Diag.worst (Driver.pass_verdict a "drf-lockset")
      (Driver.pass_verdict a "ownership")
  in
  let drf_dyn =
    (Vrm.Check_drf.check ~exempt ~initial_owners prog).Vrm.Check_drf.holds
  in
  let drf =
    agree "drf" drf_static ~dynamic:drf_dyn
      ~expected:(expected (fun x -> x.Kernel_progs.e_drf))
  in
  (* 2. barriers vs Check_barrier *)
  let barriers =
    agree "barriers"
      (Driver.pass_verdict a "barriers")
      ~dynamic:(Vrm.Check_barrier.check prog).Vrm.Check_barrier.holds
      ~expected:(expected (fun x -> x.Kernel_progs.e_barrier))
  in
  (* 3. page-table codes vs the trace-replay referee. Its traces are the
     ownership-instrumented SC runs, and a DRF panic drops a trace: when
     Check_drf fails, a missing witness is not binding. *)
  let replay =
    if not (Replay.relevant prog) then []
    else
      let findings = Replay.check ~exempt ~initial_owners prog in
      List.map
        (fun code ->
          let witnessed =
            List.exists (fun f -> f.Replay.f_code = code) findings
          in
          let name = "replay-" ^ Diag.code_name code in
          match Driver.code_verdict a code with
          | Diag.Pass ->
              { c_name = name;
                c_ok = not witnessed;
                c_detail =
                  (if witnessed then "static pass but replay WITNESSED"
                   else "clean on both sides") }
          | Diag.Fail ->
              { c_name = name;
                c_ok = witnessed || not drf_dyn;
                c_detail =
                  (if witnessed then "replay witnesses the static fail"
                   else if not drf_dyn then
                     "static fail, replay not binding (DRF panics)"
                   else "static fail with NO replay witness") }
          | Diag.Unknown ->
              { c_name = name;
                c_ok = true;
                c_detail = "static unknown, replay not binding" })
        [ Diag.W003; Diag.W004; Diag.W005 ]
  in
  drf :: barriers :: replay

let entry (e : Kernel_progs.entry) : report =
  let a = Driver.analyze e in
  let expect = e.Kernel_progs.expect in
  let checks =
    program ~expect ~exempt:e.Kernel_progs.exempt
      ~initial_owners:e.Kernel_progs.initial_owners a e.Kernel_progs.prog
  in
  (* 4. refinement (never statically Fail) *)
  let refinement =
    agree "refinement" a.Driver.a_refinement
      ~dynamic:
        (Vrm.Refinement.check ~config:e.Kernel_progs.rm_config
           e.Kernel_progs.prog)
          .Vrm.Refinement.holds
      ~expected:(Some expect.Kernel_progs.e_refine)
  in
  (* 5. the definite code set is exactly the pinned expectation *)
  let codes =
    match
      List.assoc_opt e.Kernel_progs.name Kernel_progs.lint_expectations
    with
    | None ->
        { c_name = "expected-codes";
          c_ok = false;
          c_detail = "entry missing from Kernel_progs.lint_expectations" }
    | Some expected ->
        let got = Driver.definite_codes a in
        let expected = List.sort_uniq compare expected in
        { c_name = "expected-codes";
          c_ok = got = expected;
          c_detail =
            Printf.sprintf "expected [%s], got [%s] (overall %s)"
              (String.concat ";" expected)
              (String.concat ";" got)
              (vs a.Driver.a_overall) }
  in
  { r_entry = e.Kernel_progs.name; r_checks = checks @ [ refinement; codes ] }

let corpus () =
  List.map entry
    (Kernel_progs.corpus @ Kernel_progs.buggy_corpus
   @ Kernel_progs.boundary_corpus @ Kernel_progs.lint_corpus)

let all_ok rs = List.for_all ok rs

let pp_report fmt r =
  Format.fprintf fmt "@[<v>%s: %s" r.r_entry
    (if ok r then "agree" else "DISAGREE");
  List.iter
    (fun c ->
      Format.fprintf fmt "@,  %-14s %s %s" c.c_name
        (if c.c_ok then "ok  " else "FAIL")
        c.c_detail)
    r.r_checks;
  Format.fprintf fmt "@]"
