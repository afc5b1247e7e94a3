(* Tests for the Promising Arm executor: the architectural ordering
   constraints (coherence, data/address dependencies, barriers,
   acquire/release), the promise machinery with certification, and — as a
   property — the soundness direction of the wDRF theorem: every SC
   behavior is also a Promising Arm behavior. *)

open Memmodel

let obs_r tid r = Prog.Obs_reg (tid, Reg.v r)

let cfg ?(mp = 1) ?(lf = 4) () =
  { Promising.default_config with max_promises = mp; loop_fuel = lf;
    cert_depth = 40 }

let normals (b : Behavior.t) =
  Behavior.Outcome_set.filter (fun o -> o.Behavior.status = Behavior.Normal) b

let run_litmus name t =
  Alcotest.test_case name `Quick (fun () ->
      let r = Litmus.run t in
      if not r.Litmus.as_expected then
        Alcotest.failf "%s: unexpected result:@.%a" name Litmus.pp_result r)

let litmus_cases =
  List.map
    (fun t -> run_litmus t.Litmus.prog.Prog.name t)
    Paper_examples.all

let test_lb_needs_promises () =
  (* Example 1 requires a promise: with the promise budget at 0 the
     relaxed outcome must disappear *)
  let t = Paper_examples.example1 in
  let r0 = Litmus.run ~config:(cfg ~mp:0 ()) t in
  let r1 = Litmus.run ~config:(cfg ~mp:1 ()) t in
  Alcotest.(check bool) "no promises: unreachable" false r0.Litmus.rm_sat;
  Alcotest.(check bool) "one promise: reachable" true r1.Litmus.rm_sat

let test_sb_needs_no_promises () =
  (* store buffering comes from stale reads alone *)
  let r = Litmus.run ~config:(cfg ~mp:0 ()) Paper_examples.sb in
  Alcotest.(check bool) "reachable without promises" true r.Litmus.rm_sat

let test_coherence_within_thread () =
  (* CoWW: two stores to one location by one thread are ordered *)
  let prog =
    Prog.make ~name:"coww"
      ~observables:[ Prog.Obs_loc (Loc.v "x") ]
      [ Prog.thread 0
          [ Instr.store (Expr.at "x") (Expr.c 1);
            Instr.store (Expr.at "x") (Expr.c 2) ] ]
  in
  let b = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check bool) "final value is 2" true
    (Behavior.satisfiable (fun g -> g (Prog.Obs_loc (Loc.v "x")) = Some 2) b);
  Alcotest.(check int) "no other outcome" 1 (Behavior.cardinal (normals b))

let test_read_own_write () =
  (* a thread must see its own program-order-earlier store *)
  let prog =
    Prog.make ~name:"rown"
      ~observables:[ obs_r 0 "r" ]
      [ Prog.thread 0
          [ Instr.store (Expr.at "x") (Expr.c 3);
            Instr.load (Reg.v "r") (Expr.at "x") ] ]
  in
  let b = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check int) "singleton" 1 (Behavior.cardinal (normals b));
  Alcotest.(check bool) "reads 3" true
    (Behavior.satisfiable (fun g -> g (obs_r 0 "r") = Some 3) b)

let test_rmw_atomicity_rm () =
  (* fetch_and_inc stays atomic under the relaxed model: the sum of two
     increments is always 2 *)
  let bump tid =
    Prog.thread tid [ Instr.fetch_and_inc (Reg.v "old") (Expr.at "c") ]
  in
  let prog =
    Prog.make ~name:"faa-rm"
      ~observables:[ Prog.Obs_loc (Loc.v "c") ]
      [ bump 1; bump 2 ]
  in
  let b = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check int) "one outcome" 1 (Behavior.cardinal (normals b));
  Alcotest.(check bool) "c = 2" true
    (Behavior.satisfiable (fun g -> g (Prog.Obs_loc (Loc.v "c")) = Some 2) b)

let test_dmb_ld_orders_reads () =
  (* MP with dmb-st on the writer and dmb-ld on the reader: forbidden *)
  let prog =
    Prog.make ~name:"mp-dmbst-dmbld"
      ~observables:[ obs_r 2 "r0"; obs_r 2 "r1" ]
      [ Prog.thread 1
          [ Instr.store (Expr.at "x") (Expr.c 1);
            Instr.dmb_st;
            Instr.store (Expr.at "flag") (Expr.c 1) ];
        Prog.thread 2
          [ Instr.load (Reg.v "r0") (Expr.at "flag");
            Instr.dmb_ld;
            Instr.load (Reg.v "r1") (Expr.at "x") ] ]
  in
  let b = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check bool) "stale read forbidden" false
    (Behavior.satisfiable
       (fun g -> g (obs_r 2 "r0") = Some 1 && g (obs_r 2 "r1") = Some 0)
       b)

let test_dmb_st_alone_insufficient_for_reader () =
  (* MP with dmb-st on the writer but nothing on the reader: the reader's
     loads may still be satisfied out of order *)
  let prog =
    Prog.make ~name:"mp-dmbst-only"
      ~observables:[ obs_r 2 "r0"; obs_r 2 "r1" ]
      [ Prog.thread 1
          [ Instr.store (Expr.at "x") (Expr.c 1);
            Instr.dmb_st;
            Instr.store (Expr.at "flag") (Expr.c 1) ];
        Prog.thread 2
          [ Instr.load (Reg.v "r0") (Expr.at "flag");
            Instr.load (Reg.v "r1") (Expr.at "x") ] ]
  in
  let b = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check bool) "stale read allowed" true
    (Behavior.satisfiable
       (fun g -> g (obs_r 2 "r0") = Some 1 && g (obs_r 2 "r1") = Some 0)
       b)

let test_addr_dependency_orders () =
  (* MP where the reader's second load is address-dependent on the first:
     with a writer-side dmb the stale read is forbidden even with no
     reader barrier (the Armv8 address-dependency guarantee) *)
  let prog =
    Prog.make ~name:"mp-addr-dep"
      ~init:[ (Loc.v ~index:0 "data", 7); (Loc.v ~index:1 "data", 7) ]
      ~observables:[ obs_r 2 "ptr"; obs_r 2 "v" ]
      [ Prog.thread 1
          [ Instr.store (Expr.at ~offset:(Expr.c 1) "data") (Expr.c 9);
            Instr.dmb;
            Instr.store (Expr.at "idx") (Expr.c 1) ];
        Prog.thread 2
          [ Instr.load (Reg.v "ptr") (Expr.at "idx");
            Instr.load (Reg.v "v")
              (Expr.at ~offset:Expr.(r (Reg.v "ptr")) "data") ] ]
  in
  let b = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check bool) "ptr=1 implies v=9 (no stale data[1])" false
    (Behavior.satisfiable
       (fun g -> g (obs_r 2 "ptr") = Some 1 && g (obs_r 2 "v") = Some 7)
       b)

let test_data_dependency_orders_store () =
  (* LB with a data dependency on one side only: still forbidden to see
     both 1s when the other side also has a dependency (lb-data in the
     corpus); here we check one-sided: t1 dep, t2 free: outcome allowed *)
  let prog =
    Prog.make ~name:"lb-one-dep"
      ~observables:[ obs_r 1 "r0"; obs_r 2 "r1" ]
      [ Prog.thread 1
          [ Instr.load (Reg.v "r0") (Expr.at "x");
            Instr.store (Expr.at "y") Expr.(r (Reg.v "r0")) ];
        Prog.thread 2
          [ Instr.load (Reg.v "r1") (Expr.at "y");
            Instr.store (Expr.at "x") (Expr.c 1) ] ]
  in
  let b = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check bool) "one-sided dependency: reachable" true
    (Behavior.satisfiable
       (fun g -> g (obs_r 1 "r0") = Some 1 && g (obs_r 2 "r1") = Some 1)
       b)

let test_release_not_promotable_past_earlier_store () =
  (* Example 3 fixed: the release store cannot be promised ahead of the
     program-order-earlier context store *)
  let r = Litmus.run Paper_examples.example3_fixed in
  Alcotest.(check bool) "no stale restore" false r.Litmus.rm_sat

let test_unfulfilled_promises_invalid () =
  (* a promise that cannot be fulfilled never yields a terminal outcome:
     thread 0 has no store at all, so promising is impossible and the
     behavior set equals SC's *)
  let prog =
    Prog.make ~name:"no-store"
      ~observables:[ obs_r 0 "r" ]
      [ Prog.thread 0 [ Instr.load (Reg.v "r") (Expr.at "x") ];
        Prog.thread 1 [ Instr.load (Reg.v "s") (Expr.at "x") ] ]
  in
  let sc = Sc.run prog in
  let rm = Promising.run ~config:(cfg ()) prog in
  Alcotest.(check bool) "equal" true (Behavior.equal sc rm)

let test_strict_certification_equivalent () =
  (* the letter-of-the-semantics mode (certify at every step) and the
     lazy default (prune at the end) produce identical outcome sets *)
  List.iter
    (fun (t : Litmus.t) ->
      let lazy_b = Promising.run ?config:t.Litmus.rm_config t.Litmus.prog in
      let strict_cfg =
        { (Option.value ~default:Promising.default_config t.Litmus.rm_config)
          with Promising.strict_certification = true }
      in
      let strict_b = Promising.run ~config:strict_cfg t.Litmus.prog in
      Alcotest.(check bool)
        (t.Litmus.prog.Prog.name ^ ": strict = lazy")
        true
        (Behavior.equal (normals lazy_b) (normals strict_b)))
    [ Paper_examples.example1; Paper_examples.example3_buggy;
      Paper_examples.mp_plain; Paper_examples.mp_rel_acq;
      Paper_examples.sb; Litmus_suite.w22_plain ]

(* ------------------------------------------------------------------ *)
(* Property: SC ⊆ Promising on random programs                         *)
(* ------------------------------------------------------------------ *)

let gen_thread tid =
  let open QCheck.Gen in
  let reg = map (fun i -> Reg.v (Printf.sprintf "r%d_%d" tid i)) (int_bound 1) in
  let base = oneofl [ "x"; "y" ] in
  let order = oneofl [ Instr.Plain; Instr.Acquire ] in
  let worder = oneofl [ Instr.Plain; Instr.Release ] in
  let instr =
    frequency
      [ (4, map3 (fun r b o -> Instr.load ~order:o r (Expr.at b)) reg base order);
        ( 4,
          map3
            (fun b v o -> Instr.store ~order:o (Expr.at b) (Expr.c v))
            base (int_bound 2) worder );
        (1, map2 (fun r b -> Instr.fetch_and_inc r (Expr.at b)) reg base);
        (1, return Instr.dmb);
        (1, return Instr.dmb_ld);
        (1, return Instr.dmb_st) ]
  in
  map (fun l -> Prog.thread tid l) (list_size (int_range 1 4) instr)

let gen_prog =
  QCheck.Gen.map2
    (fun t1 t2 ->
      Prog.make ~name:"random"
        ~observables:
          [ Prog.Obs_loc (Loc.v "x"); Prog.Obs_loc (Loc.v "y");
            Prog.Obs_reg (1, Reg.v "r1_0"); Prog.Obs_reg (2, Reg.v "r2_0") ]
        [ t1; t2 ])
    (gen_thread 1) (gen_thread 2)

(* A store that fulfils a promise is described with the value of the
   message it fulfils. Here CPU 2 can read x = 2 before CPU 1 reads y
   only if CPU 1 promised x := 1 and then x := 2: its first store then
   fulfils the older promise while the newer one, on the same location,
   is still outstanding. *)
let test_fulfil_description () =
  let prog =
    Prog.make ~name:"two-promises"
      ~observables:[ obs_r 1 "r0"; obs_r 2 "r1" ]
      [ Prog.thread 1
          [ Instr.load (Reg.v "r0") (Expr.at "y");
            Instr.store (Expr.at "x") (Expr.c 1);
            Instr.store (Expr.at "x") (Expr.c 2) ];
        Prog.thread 2
          [ Instr.load (Reg.v "r1") (Expr.at "x");
            Instr.store (Expr.at "y") (Expr.r (Reg.v "r1")) ] ]
  in
  let _, ws = Promising.run_with_witnesses ~config:(cfg ~mp:2 ()) prog in
  let relaxed = Behavior.outcome [ (obs_r 1 "r0", 2); (obs_r 2 "r1", 2) ] in
  match List.assoc_opt relaxed ws with
  | None -> Alcotest.fail "outcome r0 = r1 = 2 missing"
  | Some steps ->
      let cpu1 =
        List.filter_map
          (fun s ->
            if s.Promising.s_tid = 1 then Some s.Promising.s_what else None)
          steps
      in
      Alcotest.(check (list string))
        "CPU 1 promises both stores, then fulfils them in order"
        [ "promises [x] := 1";
          "promises [x] := 2";
          "r0 := [y]  (reads 2)";
          "[x] := 1  (fulfils an earlier promise)";
          "[x] := 2  (fulfils an earlier promise)" ]
        cpu1

let qcheck_sc_subset_of_rm =
  QCheck.Test.make ~name:"SC behaviors are Promising behaviors" ~count:60
    (QCheck.make gen_prog)
    (fun prog ->
      let sc = Sc.run prog in
      let rm = Promising.run ~config:(cfg ~mp:1 ()) prog in
      Behavior.subset (normals sc) (normals rm))

let () =
  Alcotest.run "promising"
    [ ("litmus-corpus", litmus_cases);
      ( "mechanics",
        [ Alcotest.test_case "LB needs promises" `Quick test_lb_needs_promises;
          Alcotest.test_case "SB needs no promises" `Quick
            test_sb_needs_no_promises;
          Alcotest.test_case "coherence CoWW" `Quick
            test_coherence_within_thread;
          Alcotest.test_case "read own write" `Quick test_read_own_write;
          Alcotest.test_case "RMW atomic under RM" `Quick
            test_rmw_atomicity_rm;
          Alcotest.test_case "unfulfillable promises pruned" `Quick
            test_unfulfilled_promises_invalid;
          Alcotest.test_case "strict certification equivalent" `Quick
            test_strict_certification_equivalent ] );
      ( "ordering",
        [ Alcotest.test_case "dmb-ld orders reads" `Quick
            test_dmb_ld_orders_reads;
          Alcotest.test_case "dmb-st alone insufficient" `Quick
            test_dmb_st_alone_insufficient_for_reader;
          Alcotest.test_case "address dependency" `Quick
            test_addr_dependency_orders;
          Alcotest.test_case "one-sided data dependency" `Quick
            test_data_dependency_orders_store;
          Alcotest.test_case "release not promotable" `Quick
            test_release_not_promotable_past_earlier_store ] );
      ( "witness-text",
        [ Alcotest.test_case "fulfil shows the fulfilled value" `Quick
            test_fulfil_description ] );
      ( "qcheck",
        [ QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_sc_subset_of_rm ] ) ]
