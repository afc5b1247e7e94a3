(* The x86-TSO executor, and the paper's §1 contrast: bugs that Arm
   admits and TSO forbids. Three-model comparisons (SC ⊆ TSO ⊆ Arm) as
   properties. *)

open Memmodel

let sat t (b : Behavior.t) = Behavior.satisfiable t.Litmus.exists b

let normals (b : Behavior.t) =
  Behavior.Outcome_set.filter (fun o -> o.Behavior.status = Behavior.Normal) b

let test_sb_allowed_on_tso () =
  (* store buffering is THE TSO relaxation *)
  Alcotest.(check bool) "reachable" true
    (sat Paper_examples.sb (Tso.run Paper_examples.sb.Litmus.prog));
  Alcotest.(check bool) "forbidden with fences" false
    (sat Paper_examples.sb_dmb (Tso.run Paper_examples.sb_dmb.Litmus.prog))

let test_mp_forbidden_on_tso () =
  (* TSO preserves store-store and load-load order: message passing works
     without any barrier *)
  Alcotest.(check bool) "mp unreachable" false
    (sat Paper_examples.mp_plain (Tso.run Paper_examples.mp_plain.Litmus.prog))

let test_lb_forbidden_on_tso () =
  (* loads are never reordered after stores on TSO: Example 1 vanishes *)
  Alcotest.(check bool) "example 1 unreachable" false
    (sat Paper_examples.example1 (Tso.run Paper_examples.example1.Litmus.prog))

let test_2plus2w_forbidden_on_tso () =
  Alcotest.(check bool) "2+2w unreachable" false
    (sat Litmus_suite.w22_plain (Tso.run Litmus_suite.w22_plain.Litmus.prog))

let test_paper_intro_contrast () =
  (* the §1 claim, executable: the barrier-less ticket lock and vCPU
     protocol are CORRECT on x86-TSO and broken on Arm *)
  let vmid_dup = Paper_examples.example2_buggy in
  Alcotest.(check bool) "duplicate VMID unreachable on TSO" false
    (sat vmid_dup (Tso.run ~fuel:3 vmid_dup.Litmus.prog));
  Alcotest.(check bool) "...but reachable on Arm" true
    (Litmus.run vmid_dup).Litmus.rm_sat;
  let stale = Paper_examples.example3_buggy in
  Alcotest.(check bool) "stale vCPU context unreachable on TSO" false
    (sat stale (Tso.run stale.Litmus.prog));
  Alcotest.(check bool) "...but reachable on Arm" true
    (Litmus.run stale).Litmus.rm_sat

let test_store_forwarding () =
  (* a thread reads its own buffered store before it drains *)
  let r0 = Reg.v "r0" in
  let prog =
    Prog.make ~name:"fwd"
      ~observables:[ Prog.Obs_reg (1, r0); Prog.Obs_loc (Loc.v "x") ]
      [ Prog.thread 1
          [ Instr.store (Expr.at "x") (Expr.c 7);
            Instr.load r0 (Expr.at "x") ] ]
  in
  let b = Tso.run prog in
  Alcotest.(check int) "deterministic" 1 (Behavior.cardinal b);
  Alcotest.(check bool) "forwarded" true
    (Behavior.satisfiable
       (fun g -> g (Prog.Obs_reg (1, r0)) = Some 7)
       b)

let test_rmw_flushes () =
  (* the LOCK-prefixed RMW acts as a fence: SB with RMWs is forbidden *)
  let r0 = Reg.v "r0" and r1 = Reg.v "r1" in
  let prog =
    Prog.make ~name:"sb-rmw"
      ~observables:[ Prog.Obs_reg (1, r0); Prog.Obs_reg (2, r1) ]
      [ Prog.thread 1
          [ Instr.store (Expr.at "x") (Expr.c 1);
            Instr.fetch_and_inc (Reg.v "t") (Expr.at "s");
            Instr.load r0 (Expr.at "y") ];
        Prog.thread 2
          [ Instr.store (Expr.at "y") (Expr.c 1);
            Instr.fetch_and_inc (Reg.v "t") (Expr.at "s");
            Instr.load r1 (Expr.at "x") ] ]
  in
  Alcotest.(check bool) "0,0 unreachable" false
    (Behavior.satisfiable
       (fun g ->
         g (Prog.Obs_reg (1, r0)) = Some 0 && g (Prog.Obs_reg (2, r1)) = Some 0)
       (Tso.run prog))

(* ---- the model hierarchy as properties ---- *)

let hierarchy_corpus =
  [ Paper_examples.example1.Litmus.prog; Paper_examples.mp_plain.Litmus.prog;
    Paper_examples.mp_dmb.Litmus.prog; Paper_examples.sb.Litmus.prog;
    Paper_examples.sb_dmb.Litmus.prog; Litmus_suite.w22_plain.Litmus.prog;
    Litmus_suite.s_plain.Litmus.prog; Litmus_suite.cowr.Litmus.prog ]

let test_sc_subset_tso_subset_arm () =
  List.iter
    (fun prog ->
      let sc = normals (Sc.run prog) in
      let tso = normals (Tso.run prog) in
      let arm =
        normals
          (Promising.run
             ~config:{ Promising.default_config with max_promises = 2 }
             prog)
      in
      Alcotest.(check bool) (prog.Prog.name ^ ": SC ⊆ TSO") true
        (Behavior.subset sc tso);
      Alcotest.(check bool) (prog.Prog.name ^ ": TSO ⊆ Arm") true
        (Behavior.subset tso arm))
    hierarchy_corpus

let gen_thread tid =
  let open QCheck.Gen in
  let reg = map (fun i -> Reg.v (Printf.sprintf "r%d_%d" tid i)) (int_bound 1) in
  let base = oneofl [ "x"; "y" ] in
  let instr =
    frequency
      [ (3, map2 (fun r b -> Instr.load r (Expr.at b)) reg base);
        (3, map2 (fun b v -> Instr.store (Expr.at b) (Expr.c v)) base (int_range 1 2));
        (1, map2 (fun r b -> Instr.fetch_and_inc r (Expr.at b)) reg base);
        (1, return Instr.dmb) ]
  in
  map (fun l -> Prog.thread tid l) (list_size (int_range 1 4) instr)

let qcheck_hierarchy =
  QCheck.Test.make ~name:"SC ⊆ TSO ⊆ Arm on random programs" ~count:80
    (QCheck.make
       (QCheck.Gen.map2
          (fun t1 t2 ->
            Prog.make ~name:"rand-tso"
              ~observables:
                [ Prog.Obs_loc (Loc.v "x"); Prog.Obs_loc (Loc.v "y");
                  Prog.Obs_reg (1, Reg.v "r1_0"); Prog.Obs_reg (2, Reg.v "r2_0") ]
              [ t1; t2 ])
          (gen_thread 1) (gen_thread 2)))
    (fun prog ->
      let sc = normals (Sc.run prog) in
      let tso = normals (Tso.run prog) in
      let arm =
        normals
          (Promising.run
             ~config:{ Promising.default_config with max_promises = 2 }
             prog)
      in
      Behavior.subset sc tso && Behavior.subset tso arm)

let () =
  Alcotest.run "tso"
    [ ( "relaxations",
        [ Alcotest.test_case "SB allowed" `Quick test_sb_allowed_on_tso;
          Alcotest.test_case "MP forbidden" `Quick test_mp_forbidden_on_tso;
          Alcotest.test_case "LB forbidden" `Quick test_lb_forbidden_on_tso;
          Alcotest.test_case "2+2W forbidden" `Quick
            test_2plus2w_forbidden_on_tso;
          Alcotest.test_case "store forwarding" `Quick test_store_forwarding;
          Alcotest.test_case "RMW flushes" `Quick test_rmw_flushes ] );
      ( "paper-contrast",
        [ Alcotest.test_case "§1: TSO-safe, Arm-broken" `Quick
            test_paper_intro_contrast ] );
      ( "hierarchy",
        [ Alcotest.test_case "corpus SC ⊆ TSO ⊆ Arm" `Quick
            test_sc_subset_tso_subset_arm;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_hierarchy ] ) ]
