(* Unit tests for the exhaustive SC executor: determinism of sequential
   programs, completeness of interleaving exploration, atomic RMWs,
   control flow, panics and fuel accounting. *)

open Memmodel

let obs_r tid r = Prog.Obs_reg (tid, Reg.v r)
let obs_l base = Prog.Obs_loc (Loc.v base)

let values (b : Behavior.t) =
  List.map
    (fun (o : Behavior.outcome) -> List.map snd o.Behavior.values)
    (Behavior.elements b)

let test_sequential_deterministic () =
  let prog =
    Prog.make ~name:"seq"
      ~observables:[ obs_r 0 "r"; obs_l "x" ]
      [ Prog.thread 0
          [ Instr.store (Expr.at "x") (Expr.c 5);
            Instr.load (Reg.v "r") (Expr.at "x");
            Instr.store (Expr.at "x") Expr.(r (Reg.v "r") + c 1) ] ]
  in
  let b = Sc.run prog in
  Alcotest.(check int) "single outcome" 1 (Behavior.cardinal b);
  Alcotest.(check (list (list int))) "value" [ [ 5; 6 ] ] (values b)

let test_interleavings_complete () =
  (* store buffering on SC: exactly the 3 outcomes (0,1) (1,0) (1,1) *)
  let prog =
    Prog.make ~name:"sb"
      ~observables:[ obs_r 1 "r0"; obs_r 2 "r1" ]
      [ Prog.thread 1
          [ Instr.store (Expr.at "x") (Expr.c 1);
            Instr.load (Reg.v "r0") (Expr.at "y") ];
        Prog.thread 2
          [ Instr.store (Expr.at "y") (Expr.c 1);
            Instr.load (Reg.v "r1") (Expr.at "x") ] ]
  in
  let b = Sc.run prog in
  Alcotest.(check int) "3 outcomes" 3 (Behavior.cardinal b);
  Alcotest.(check bool) "0,0 unreachable on SC" false
    (Behavior.satisfiable
       (fun g ->
         g (obs_r 1 "r0") = Some 0 && g (obs_r 2 "r1") = Some 0)
       b)

let test_faa_atomic () =
  let bump tid =
    Prog.thread tid [ Instr.fetch_and_inc (Reg.v "old") (Expr.at "c") ]
  in
  let prog =
    Prog.make ~name:"faa" ~observables:[ obs_l "c" ] [ bump 1; bump 2; bump 3 ]
  in
  let b = Sc.run prog in
  Alcotest.(check (list (list int))) "always 3" [ [ 3 ] ] (values b)

let test_nonatomic_increment_races () =
  let bump tid =
    Prog.thread tid
      [ Instr.load (Reg.v "v") (Expr.at "c");
        Instr.store (Expr.at "c") Expr.(r (Reg.v "v") + c 1) ]
  in
  let prog =
    Prog.make ~name:"racy-inc" ~observables:[ obs_l "c" ] [ bump 1; bump 2 ]
  in
  let b = Sc.run prog in
  Alcotest.(check bool) "can lose an update"
    true
    (Behavior.satisfiable (fun g -> g (obs_l "c") = Some 1) b);
  Alcotest.(check bool) "can be correct"
    true
    (Behavior.satisfiable (fun g -> g (obs_l "c") = Some 2) b)

let test_if_else () =
  let prog =
    Prog.make ~name:"if"
      ~init:[ (Loc.v "x", 7) ]
      ~observables:[ obs_r 0 "r" ]
      [ Prog.thread 0
          [ Instr.load (Reg.v "v") (Expr.at "x");
            Instr.if_
              Expr.(r (Reg.v "v") = c 7)
              [ Instr.move (Reg.v "r") (Expr.c 1) ]
              [ Instr.move (Reg.v "r") (Expr.c 2) ] ] ]
  in
  Alcotest.(check (list (list int))) "then branch" [ [ 1 ] ]
    (values (Sc.run prog))

let test_while_countdown () =
  let prog =
    Prog.make ~name:"loop"
      ~init:[ (Loc.v "n", 5) ]
      ~observables:[ obs_l "n"; obs_r 0 "sum" ]
      [ Prog.thread 0
          [ Instr.move (Reg.v "sum") (Expr.c 0);
            Instr.load (Reg.v "v") (Expr.at "n");
            Instr.while_
              Expr.(r (Reg.v "v") > c 0)
              [ Instr.move (Reg.v "sum") Expr.(r (Reg.v "sum") + r (Reg.v "v"));
                Instr.store (Expr.at "n") Expr.(r (Reg.v "v") - c 1);
                Instr.load (Reg.v "v") (Expr.at "n") ] ] ]
  in
  (* outcomes sort register observables before locations: [sum; n] *)
  Alcotest.(check (list (list int))) "5+4+3+2+1" [ [ 15; 0 ] ]
    (values (Sc.run prog))

let test_panic_outcome () =
  let prog =
    Prog.make ~name:"panic" ~observables:[ obs_l "x" ]
      [ Prog.thread 0 [ Instr.Panic ] ]
  in
  Alcotest.(check bool) "panicked" true (Behavior.any_panic (Sc.run prog))

let test_div_panic_outcome () =
  let prog =
    Prog.make ~name:"div0" ~observables:[ obs_l "x" ]
      [ Prog.thread 0 [ Instr.move (Reg.v "r") Expr.(c 1 / c 0) ] ]
  in
  Alcotest.(check bool) "panicked" true (Behavior.any_panic (Sc.run prog))

let test_fuel_exhaustion () =
  let prog =
    Prog.make ~name:"spin" ~observables:[ obs_l "x" ]
      [ Prog.thread 0 [ Instr.while_ (Expr.Bool true) [ Instr.Nop ] ] ]
  in
  let b = Sc.run ~fuel:4 prog in
  Alcotest.(check bool) "fuel reported" true (Behavior.any_fuel_exhausted b);
  Alcotest.(check bool) "no normal outcome" false
    (Behavior.satisfiable (fun _ -> true) b)

let test_ghost_ops_are_noops () =
  let prog =
    Prog.make ~name:"ghost" ~observables:[ obs_l "x" ]
      [ Prog.thread 0
          [ Instr.pull [ "x" ]; Instr.dmb;
            Instr.store (Expr.at "x") (Expr.c 9);
            Instr.tlbi_all; Instr.push [ "x" ] ] ]
  in
  Alcotest.(check (list (list int))) "value written" [ [ 9 ] ]
    (values (Sc.run prog))

let test_observe_indexed_loc () =
  let prog =
    Prog.make ~name:"indexed"
      ~observables:[ Prog.Obs_loc (Loc.v ~index:3 "arr") ]
      [ Prog.thread 0
          [ Instr.move (Reg.v "i") (Expr.c 3);
            Instr.store (Expr.at ~offset:Expr.(r (Reg.v "i")) "arr") (Expr.c 77) ] ]
  in
  Alcotest.(check (list (list int))) "arr[3]" [ [ 77 ] ] (values (Sc.run prog))

(* qcheck: for any single-thread straight-line program the SC behavior
   set is a singleton (determinism). *)
let gen_straightline =
  let open QCheck.Gen in
  let reg = oneofl [ "a"; "b" ] in
  let base = oneofl [ "x"; "y" ] in
  let instr =
    frequency
      [ (3, map2 (fun r b -> Instr.load (Reg.v r) (Expr.at b)) reg base);
        (3, map2 (fun b v -> Instr.store (Expr.at b) (Expr.c v)) base small_nat);
        (1, map2 (fun r b -> Instr.fetch_and_inc (Reg.v r) (Expr.at b)) reg base);
        (1, return Instr.dmb);
        (2, map2 (fun r v -> Instr.move (Reg.v r) (Expr.c v)) reg small_nat) ]
  in
  list_size (int_range 1 6) instr

let qcheck_single_thread_deterministic =
  QCheck.Test.make ~name:"single-thread SC is deterministic" ~count:100
    (QCheck.make gen_straightline)
    (fun code ->
      let prog =
        Prog.make ~name:"q"
          ~observables:
            [ Prog.Obs_reg (0, Reg.v "a"); Prog.Obs_reg (0, Reg.v "b");
              Prog.Obs_loc (Loc.v "x"); Prog.Obs_loc (Loc.v "y") ]
          [ Prog.thread 0 code ]
      in
      Behavior.cardinal (Sc.run prog) = 1)

let () =
  Alcotest.run "sc"
    [ ( "execution",
        [ Alcotest.test_case "sequential deterministic" `Quick
            test_sequential_deterministic;
          Alcotest.test_case "interleavings complete" `Quick
            test_interleavings_complete;
          Alcotest.test_case "faa atomic" `Quick test_faa_atomic;
          Alcotest.test_case "nonatomic increments race" `Quick
            test_nonatomic_increment_races;
          Alcotest.test_case "if/else" `Quick test_if_else;
          Alcotest.test_case "while countdown" `Quick test_while_countdown ]
      );
      ( "outcomes",
        [ Alcotest.test_case "panic" `Quick test_panic_outcome;
          Alcotest.test_case "division panic" `Quick test_div_panic_outcome;
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
          Alcotest.test_case "ghost ops" `Quick test_ghost_ops_are_noops;
          Alcotest.test_case "indexed observable" `Quick
            test_observe_indexed_loc ] );
      ( "qcheck",
        [ QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_single_thread_deterministic ] )
    ]
