(* Cross-validation of the two relaxed-memory models: the paper's proofs
   rest on Promising Arm being equivalent to the Armv8 axiomatic
   specification; here the two executable models are compared outcome-set
   for outcome-set on the litmus corpus and on thousands of random
   straight-line programs. *)

open Memmodel

let axio_cfg =
  { Promising.default_config with max_promises = 2; cert_depth = 40 }

let normals (b : Behavior.t) =
  Behavior.Outcome_set.filter (fun o -> o.Behavior.status = Behavior.Normal) b

(* ---- corpus agreement ---- *)

let straight_line_tests =
  (* every suite test without loops/branches/computed addresses *)
  [ Paper_examples.example1; Paper_examples.mp_plain; Paper_examples.mp_dmb;
    Paper_examples.mp_rel_acq; Paper_examples.sb; Paper_examples.sb_dmb;
    Paper_examples.corr; Litmus_suite.s_plain; Litmus_suite.s_dmb;
    Litmus_suite.w22_plain; Litmus_suite.w22_dmb; Litmus_suite.wrc_plain;
    Litmus_suite.wrc_dmb; Litmus_suite.isa2; Litmus_suite.cowr;
    Litmus_suite.corw1; Litmus_suite.sb_one_dmb; Litmus_suite.r_plain;
    Litmus_suite.r_dmb; Litmus_suite.corr_total; Litmus_suite.sb_rel_acq ]

let test_corpus_agreement () =
  List.iter
    (fun (t : Litmus.t) ->
      let ax = Axiomatic.run t.Litmus.prog in
      let pr = normals (Promising.run ~config:axio_cfg t.Litmus.prog) in
      if not (Behavior.equal ax pr) then
        Alcotest.failf "%s: axiomatic %d outcomes vs promising %d@.ax: %a@.pr: %a"
          t.Litmus.prog.Prog.name (Behavior.cardinal ax)
          (Behavior.cardinal pr) Behavior.pp ax Behavior.pp pr)
    straight_line_tests

let test_lb_data_agreement () =
  (* load buffering with data deps: the dob edges matter on both sides *)
  let ax = Axiomatic.run Paper_examples.lb_data.Litmus.prog in
  let pr =
    normals (Promising.run ~config:axio_cfg Paper_examples.lb_data.Litmus.prog)
  in
  Alcotest.(check bool) "agree" true (Behavior.equal ax pr)

(* ---- random-program equivalence ---- *)

let gen_thread ?(with_rmw = true) tid =
  let open QCheck.Gen in
  let base = oneofl [ "x"; "y" ] in
  let fresh_reg =
    let c = ref 0 in
    fun () ->
      incr c;
      Reg.v (Printf.sprintf "t%d_r%d" tid !c)
  in
  let lord = oneofl [ Instr.Plain; Instr.Acquire ] in
  let word = oneofl [ Instr.Plain; Instr.Release ] in
  let instr defined =
    frequency
      ([ (3, map2 (fun b o -> `Load (b, o)) base lord);
         (3, map3 (fun b v o -> `Store (b, `Const v, o)) base (int_range 1 2) word);
         (1, oneofl [ `Dmb Instr.Dmb_full; `Dmb Instr.Dmb_ld; `Dmb Instr.Dmb_st ]) ]
      @ (if with_rmw then [ (1, map2 (fun b o -> `Faa (b, o)) base lord) ]
         else [])
      @
      if defined = [] then []
      else
        [ ( 2,
            map3
              (fun b r o -> `Store (b, `Reg r, o))
              base (oneofl defined) word ) ])
  in
  let rec build n defined acc =
    if n = 0 then return (List.rev acc)
    else
      instr defined >>= fun op ->
      let defined, i =
        match op with
        | `Load (b, o) ->
            let r = fresh_reg () in
            (r :: defined, Instr.load ~order:o r (Expr.at b))
        | `Store (b, `Const v, o) ->
            (defined, Instr.store ~order:o (Expr.at b) (Expr.c v))
        | `Store (b, `Reg r, o) ->
            (defined, Instr.store ~order:o (Expr.at b) (Expr.r r))
        | `Faa (b, o) ->
            let r = fresh_reg () in
            (r :: defined, Instr.faa ~order:o r (Expr.at b) (Expr.c 1))
        | `Dmb k -> (defined, Instr.Barrier k)
      in
      build (n - 1) defined (i :: acc)
  in
  int_range 1 3 >>= fun n -> build n [] []

let gen_prog ?with_rmw () =
  QCheck.Gen.map2
    (fun c1 c2 ->
      Prog.make ~name:"rand-ax"
        ~observables:
          [ Prog.Obs_loc (Loc.v "x"); Prog.Obs_loc (Loc.v "y");
            Prog.Obs_reg (1, Reg.v "t1_r1"); Prog.Obs_reg (2, Reg.v "t2_r1") ]
        [ Prog.thread 1 c1; Prog.thread 2 c2 ])
    (gen_thread ?with_rmw 1) (gen_thread ?with_rmw 2)

let report_mismatch prog ax pr =
  Format.eprintf "@.MISMATCH on:@.";
  List.iter
    (fun th ->
      Format.eprintf "thread %d:@." th.Prog.tid;
      List.iter (fun i -> Format.eprintf "  %s@." (Instr.show i)) th.Prog.code)
    prog.Prog.threads;
  Format.eprintf "axiomatic-only: %a@.promising-only: %a@." Behavior.pp
    (Behavior.diff ax pr) Behavior.pp (Behavior.diff pr ax)

(* On the RMW-free fragment the two models must agree exactly: promises
   cover every store (budget 3 >= stores per thread). *)
let qcheck_equivalence =
  QCheck.Test.make
    ~name:"axiomatic = Promising on straight-line load/store programs"
    ~count:400
    (QCheck.make (gen_prog ~with_rmw:false ()))
    (fun prog ->
      let ax = Axiomatic.run prog in
      let pr =
        normals
          (Promising.run
             ~config:{ axio_cfg with Promising.max_promises = 3 }
             prog)
      in
      if Behavior.equal ax pr then true
      else begin
        report_mismatch prog ax pr;
        false
      end)

(* With RMWs the executor is deliberately weaker (RMWs are never
   promised), so it may under-approximate — but it must remain SOUND:
   every Promising behavior is axiomatically valid Armv8. *)
let qcheck_soundness =
  QCheck.Test.make
    ~name:"Promising behaviors are axiomatically valid (with RMWs)"
    ~count:300
    (QCheck.make (gen_prog ~with_rmw:true ()))
    (fun prog ->
      let ax = Axiomatic.run prog in
      let pr = normals (Promising.run ~config:axio_cfg prog) in
      if Behavior.subset pr ax then true
      else begin
        report_mismatch prog ax pr;
        false
      end)

let () =
  Alcotest.run "axiomatic"
    [ ( "corpus",
        [ Alcotest.test_case "litmus corpus agreement" `Quick
            test_corpus_agreement;
          Alcotest.test_case "lb-data agreement" `Quick
            test_lb_data_agreement ] );
      ( "qcheck",
        [ QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_equivalence;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_soundness ] ) ]
