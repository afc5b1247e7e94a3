(* The static wDRF analyzer: cross-validation against the dynamic
   checkers, deterministic diagnostics, golden renderings of the text
   and JSON outputs (one per verdict: pass / fail / unknown), the
   fixpoint solver's loop handling and statistics, and a random-program
   property with the dynamic checkers as the oracle. *)

open Analysis
open Sekvm

let test_cross_validation () =
  let reports = Validate.corpus () in
  List.iter
    (fun r ->
      if not (Validate.ok r) then
        Format.printf "%a@." Validate.pp_report r)
    reports;
  Alcotest.(check bool) "static and dynamic checkers agree" true
    (Validate.all_ok reports)

let all_entries () =
  Kernel_progs.corpus @ Kernel_progs.buggy_corpus
  @ Kernel_progs.boundary_corpus @ Kernel_progs.lint_corpus

(* Diagnostics come out in Diag.compare order, identically on repeated
   runs: the CLI output and the goldens below depend on it. *)
let test_deterministic_diags () =
  List.iter
    (fun (e : Kernel_progs.entry) ->
      let a = Driver.analyze e and b = Driver.analyze e in
      Alcotest.(check bool)
        (e.Kernel_progs.name ^ " reproducible")
        true
        (Driver.diags a = Driver.diags b);
      let ds = Driver.diags a in
      Alcotest.(check bool)
        (e.Kernel_progs.name ^ " sorted")
        true
        (ds = Diag.sort ds))
    (all_entries ())

(* Only programs the analyzer fully discharges — overall AND refinement
   Pass — may skip exploration; pinning the set keeps the service's
   static-serve decision visible in review. *)
let test_static_serve_set () =
  let served =
    List.filter_map
      (fun (e : Kernel_progs.entry) ->
        let a = Driver.analyze e in
        if
          a.Driver.a_overall = Diag.Pass
          && a.Driver.a_refinement = Diag.Pass
        then Some e.Kernel_progs.name
        else None)
      (all_entries ())
  in
  Alcotest.(check (list string))
    "statically dischargeable entries"
    [ "gen_vmid"; "vm-boot-state"; "share-page"; "mcs-counter" ]
    served

let test_program_summary () =
  let a = Driver.analyze Kernel_progs.vmid_alloc in
  (match
     Driver.to_program_summary
       ~expect:Kernel_progs.vmid_alloc.Kernel_progs.expect a
   with
  | None -> Alcotest.fail "gen_vmid should summarize"
  | Some ps ->
      Alcotest.(check bool) "all green" true
        (ps.Vrm.Certificate.ps_drf && ps.Vrm.Certificate.ps_barrier
        && ps.Vrm.Certificate.ps_refine
        && ps.Vrm.Certificate.ps_as_expected));
  let u = Driver.analyze Kernel_progs.walker_no_isb in
  Alcotest.(check bool) "unknown entries do not summarize" true
    (Driver.to_program_summary
       ~expect:Kernel_progs.walker_no_isb.Kernel_progs.expect u
    = None)

(* --- engines ------------------------------------------------------- *)

(* A loop-carried double map that only manifests on the second
   iteration: 0/1 loop unrolling never sees it, loop peeling pins it
   Definite. *)
let test_loop_carried () =
  let fx = Driver.analyze Kernel_progs.el2_loop_remap in
  Alcotest.(check (list string))
    "fixpoint pins W003" [ "W003" ] (Driver.definite_codes fx);
  Alcotest.(check string) "fixpoint write-once fails" "fail"
    (Diag.verdict_name (Driver.pass_verdict fx "write-once"))

(* Fixpoint passes carry solver statistics. *)
let test_stats () =
  let fx = Driver.analyze Kernel_progs.vmid_alloc in
  let lockset =
    List.find (fun (p : Driver.pass) -> p.Driver.p_name = "drf-lockset")
      fx.Driver.a_passes
  in
  Alcotest.(check bool) "nodes counted" true
    (lockset.Driver.p_stats.Absint.st_nodes > 0);
  Alcotest.(check bool) "edges counted" true
    (lockset.Driver.p_stats.Absint.st_edges > 0);
  Alcotest.(check bool) "solver iterated" true
    (lockset.Driver.p_stats.Absint.st_iters > 0);
  Alcotest.(check bool) "wall time non-negative" true
    (List.for_all (fun (p : Driver.pass) -> p.Driver.p_ms >= 0.)
       fx.Driver.a_passes)

(* --- random programs vs the dynamic checkers ----------------------- *)

let two_threads t1 t2 =
  let open Memmodel in
  Prog.make ~name:"lint-qcheck" ~observables:[]
    ~shared_bases:[ "data"; "el2_m" ]
    [ Prog.thread 1 t1; Prog.thread 2 t2 ]

let gen_prog ~loops seed =
  let rng = Random.State.make [| seed |] in
  let t1 = Dsl_gen.gen_code rng ~loops 1 in
  two_threads t1 (Dsl_gen.gen_code rng ~loops 2)

(* The random programs of seeds 0-99, with and without loops, reach
   every instruction kind and both load orders (see Cover), each at
   about half of what they draw. *)
let test_dsl_census () =
  Hashtbl.reset Dsl_gen.census;
  for seed = 0 to 99 do
    ignore (gen_prog ~loops:true seed);
    ignore (gen_prog ~loops:false seed)
  done;
  Cover.check Dsl_gen.census
    [ ("load plain", 100); ("load acquire", 100); ("store", 250);
      ("store el2", 180); ("store release", 230); ("dmb", 75);
      ("dmb ld", 75); ("dmb st", 75); ("pull/push", 250); ("nop", 230);
      ("if", 200); ("while", 65) ]

(* The analyzer's random-program oracle: on [gen_prog seed], a static
   Pass must hold dynamically (Check_drf / Check_barrier), a static Fail
   must not, and a definite W003/W004/W005 must have a replay witness.
   Unknown is not binding. The page-table base is exempt from DRF, as in
   the corpus. Replay traces stop at DRF panics, which nearly every
   random program has, so loop-free programs are checked a second time
   with every shared base exempt: then each SC trace is replayed in full.
   (With loops, uninstrumented trace enumeration is exponential.) *)
let oracle ~loops ~label prog =
  let check exempt =
    let a = Driver.analyze_prog ~exempt ~name:"lint-qcheck" prog in
    match
      List.filter
        (fun c -> not c.Validate.c_ok)
        (Validate.program ~exempt ~initial_owners:[] a prog)
    with
    | [] -> true
    | bad ->
        Format.eprintf "%s (loops=%b, exempt [%s]):@.%a@." label loops
          (String.concat ";" exempt) Driver.pp a;
        List.iter
          (fun c ->
            Format.eprintf "  %s: %s@." c.Validate.c_name c.Validate.c_detail)
          bad;
        false
  in
  check [ "el2_m" ] && (loops || check [ "data"; "el2_m" ])

let oracle_seed ~loops seed =
  oracle ~loops ~label:(Printf.sprintf "seed %d" seed) (gen_prog ~loops seed)

let oracle_property ~loops name =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 14 |])
    (QCheck.Test.make ~name ~count:200
       QCheck.(int_bound 100_000)
       (oracle_seed ~loops))

(* Pinned: a loop-carried barrier misuse in nested loops, first drawn as
   a random program. The pull in one outer iteration is followed by a
   plain load of [data] in the next, before any DMB(LD); Check_barrier
   saw it only once it unrolled loops twice. *)
let test_loop_carried_barrier () =
  let open Memmodel in
  let r = Reg.v and data = Expr.at "data" in
  let zero g = Expr.Cmp (Expr.Eq, Expr.r g, Expr.c 0) in
  let t1_r1 = r "t1_r1" and t2_r1 = r "t2_r1" and t2_r2 = r "t2_r2" in
  let prog =
    two_threads
      [ Instr.store (Expr.at "el2_m") (Expr.c 1);
        Instr.Nop;
        Instr.store data (Expr.c 2);
        Instr.load t1_r1 data;
        Instr.if_ (zero t1_r1)
          [ Instr.store_rel data (Expr.c 1) ]
          [ Instr.load_acq (r "t1_r2") data; Instr.store data (Expr.c 2) ] ]
      [ Instr.load t2_r1 data;
        Instr.while_ (zero t2_r1)
          [ Instr.load t2_r2 data;
            Instr.while_ (zero t2_r2)
              [ Instr.pull [ "data" ]; Instr.Nop; Instr.push [ "data" ] ] ];
        Instr.dmb_ld;
        Instr.store_rel data (Expr.c 1) ]
  in
  Alcotest.(check bool) "oracle agrees" true
    (oracle ~loops:true ~label:"nested loops" prog)

(* --- goldens ------------------------------------------------------- *)

let render e = Format.asprintf "%a" Driver.pp (Driver.analyze e)
let render_json e = Cache.Json.to_string (Driver.to_json (Driver.analyze e))

let golden_pass_text =
  "lint gen_vmid: pass (refinement pass)\n\
  \  drf-lockset   pass\n\
  \  barriers      pass\n\
  \  write-once    pass\n\
  \  transactional pass\n\
  \  tlbi          pass\n\
  \  ownership     pass\n\
  \  delay         pass"

let golden_fail_text =
  "lint el2-double-map: fail (refinement pass)\n\
  \  drf-lockset   pass\n\
  \  barriers      pass\n\
  \  write-once    fail\n\
  \    W003 [definite] tid 1 @ 1: kernel mapping el2_pt[0] overwritten \
   outside a transactional section\n\
  \        fix: install each kernel mapping exactly once, or wrap the \
   remap in a pull/push section\n\
  \  transactional pass\n\
  \  tlbi          pass\n\
  \  ownership     pass\n\
  \  delay         pass"

let golden_unknown_text =
  "lint walker-no-isb: unknown (refinement unknown)\n\
  \  drf-lockset   pass\n\
  \  barriers      unknown\n\
  \    W007 [possible] tid 1 @ 1: branch on a value read from a page \
   table is followed by loads with no ISB: the control dependency alone \
   does not order them\n\
  \        fix: insert `isb` between the page-table read and the \
   dependent loads\n\
  \  write-once    pass\n\
  \  transactional pass\n\
  \  tlbi          pass\n\
  \  ownership     pass\n\
  \  delay         pass"

let golden_fail_json =
  "{\"kind\":\"lint\",\"name\":\"el2-double-map\",\"prog_digest\":\"419295c9c9093fa79a9f6e594fdbc0cd\",\"analyzer\":\"lint-2\",\"overall\":\"fail\",\"refinement\":\"pass\",\"passes\":[{\"name\":\"drf-lockset\",\"verdict\":\"pass\",\"diags\":[]},{\"name\":\"barriers\",\"verdict\":\"pass\",\"diags\":[]},{\"name\":\"write-once\",\"verdict\":\"fail\",\"diags\":[{\"code\":\"W003\",\"tid\":1,\"path\":[1],\"certainty\":\"definite\",\"message\":\"kernel mapping el2_pt[0] overwritten outside a transactional section\",\"fix\":\"install each kernel mapping exactly once, or wrap the remap in a pull/push section\"}]},{\"name\":\"transactional\",\"verdict\":\"pass\",\"diags\":[]},{\"name\":\"tlbi\",\"verdict\":\"pass\",\"diags\":[]},{\"name\":\"ownership\",\"verdict\":\"pass\",\"diags\":[]},{\"name\":\"delay\",\"verdict\":\"pass\",\"diags\":[]}]}"

let test_golden_text () =
  Alcotest.(check string) "pass text" golden_pass_text
    (render Kernel_progs.vmid_alloc);
  Alcotest.(check string) "fail text" golden_fail_text
    (render Kernel_progs.el2_double_map);
  Alcotest.(check string) "unknown text" golden_unknown_text
    (render Kernel_progs.walker_no_isb)

let test_golden_json () =
  Alcotest.(check string) "fail json" golden_fail_json
    (render_json Kernel_progs.el2_double_map);
  (* the JSON output round-trips through the strict parser *)
  List.iter
    (fun (e : Kernel_progs.entry) ->
      let s = render_json e in
      match Cache.Json.of_string s with
      | Error m -> Alcotest.fail (e.Kernel_progs.name ^ ": " ^ m)
      | Ok j ->
          Alcotest.(check string)
            (e.Kernel_progs.name ^ " kind")
            "lint"
            Cache.Json.(to_str (member "kind" j));
          Alcotest.(check string)
            (e.Kernel_progs.name ^ " reencode")
            s
            (Cache.Json.to_string j))
    (all_entries ())

let () =
  Alcotest.run "analysis"
    [ ( "validate",
        [ Alcotest.test_case "cross-validation" `Quick test_cross_validation ]
      );
      ( "diags",
        [ Alcotest.test_case "deterministic order" `Quick
            test_deterministic_diags;
          Alcotest.test_case "static-serve set" `Quick test_static_serve_set;
          Alcotest.test_case "program summary" `Quick test_program_summary ]
      );
      ( "engines",
        [ Alcotest.test_case "loop-carried W003" `Quick test_loop_carried;
          Alcotest.test_case "solver stats" `Quick test_stats;
          Alcotest.test_case "loop-carried W002 (nested loops)" `Quick
            test_loop_carried_barrier;
          Alcotest.test_case "dsl_gen census floors" `Quick test_dsl_census;
          oracle_property ~loops:false
            "loop-free programs: verdicts agree with dynamic checkers";
          oracle_property ~loops:true
            "loopy programs: verdicts agree with dynamic checkers" ] );
      ( "golden",
        [ Alcotest.test_case "text" `Quick test_golden_text;
          Alcotest.test_case "json" `Quick test_golden_json ] ) ]
