(* Unit tests for the DSL expression layer: evaluation, view (dependency)
   propagation, address resolution, and the static register analysis. *)

open Memmodel

let lookup env r =
  match List.assoc_opt r env with Some v -> v | None -> (0, 0)

let test_arith () =
  let env = [ (Reg.v "a", (6, 3)); (Reg.v "b", (2, 7)) ] in
  let eval e = Expr.eval_v (lookup env) e in
  Alcotest.(check (pair int int))
    "add" (8, 7)
    (eval Expr.(r (Reg.v "a") + r (Reg.v "b")));
  Alcotest.(check (pair int int))
    "sub" (4, 7)
    (eval Expr.(r (Reg.v "a") - r (Reg.v "b")));
  Alcotest.(check (pair int int))
    "mul" (12, 7)
    (eval Expr.(r (Reg.v "a") * r (Reg.v "b")));
  Alcotest.(check (pair int int))
    "div" (3, 7)
    (eval Expr.(r (Reg.v "a") / r (Reg.v "b")));
  Alcotest.(check (pair int int)) "const has view 0" (5, 0) (eval (Expr.c 5))

let test_view_join () =
  (* the view of an expression is the max of its registers' views *)
  let env = [ (Reg.v "lo", (1, 2)); (Reg.v "hi", (1, 9)) ] in
  let _, view =
    Expr.eval_v (lookup env) Expr.(r (Reg.v "lo") + r (Reg.v "hi"))
  in
  Alcotest.(check int) "join of views" 9 view

let test_div_by_zero () =
  Alcotest.check_raises "div by zero panics"
    (Expr.Eval_panic "division by zero") (fun () ->
      ignore (Expr.eval_v (lookup []) Expr.(c 1 / c 0)))

let test_bool () =
  let eval b = Expr.eval_b (lookup []) b in
  Alcotest.(check (pair bool int)) "lt" (true, 0) (eval Expr.(c 1 < c 2));
  Alcotest.(check (pair bool int)) "ge" (false, 0) (eval Expr.(c 1 >= c 2));
  Alcotest.(check (pair bool int)) "eq" (true, 0) (eval Expr.(c 3 = c 3));
  Alcotest.(check (pair bool int)) "ne" (false, 0) (eval Expr.(c 3 <> c 3));
  Alcotest.(check (pair bool int))
    "and/or/not" (true, 0)
    (eval Expr.(not (Bool false) && (Bool true || Bool false)))

let test_addr () =
  let env = [ (Reg.v "i", (3, 5)) ] in
  let loc, view =
    Expr.eval_addr (lookup env) (Expr.at ~offset:Expr.(r (Reg.v "i") + c 1) "pte")
  in
  Alcotest.(check string) "base" "pte" (Loc.base loc);
  Alcotest.(check int) "index" 4 (Loc.index loc);
  Alcotest.(check int) "address dependency view" 5 view

let test_regs_of () =
  let e = Expr.(r (Reg.v "a") + (c 2 * r (Reg.v "b"))) in
  Alcotest.(check (list string)) "regs of vexp" [ "a"; "b" ]
    (Expr.regs_of_vexp e);
  let b = Expr.(r (Reg.v "x") < c 1 && Bool true) in
  Alcotest.(check (list string)) "regs of bexp" [ "x" ] (Expr.regs_of_bexp b)

let test_loc () =
  Alcotest.(check string) "scalar print" "x" (Loc.to_string (Loc.v "x"));
  Alcotest.(check string) "indexed print" "pte[3]"
    (Loc.to_string (Loc.v ~index:3 "pte"));
  Alcotest.(check bool) "equality" true
    (Loc.equal (Loc.v ~index:1 "a") (Loc.v ~index:1 "a"));
  Alcotest.(check bool) "inequality" false
    (Loc.equal (Loc.v ~index:1 "a") (Loc.v ~index:2 "a"))

let test_instr_size_bases () =
  let code =
    [ Instr.load (Reg.v "r") (Expr.at "x");
      Instr.if_
        Expr.(r (Reg.v "r") = c 0)
        [ Instr.store (Expr.at "y") (Expr.c 1) ]
        [ Instr.while_ (Expr.Bool false) [ Instr.store (Expr.at "z") (Expr.c 2) ] ]
    ]
  in
  Alcotest.(check int) "size" 5 (Instr.size_list code);
  Alcotest.(check (list string))
    "bases" [ "x"; "y"; "z" ]
    (List.sort_uniq compare (Instr.bases_list code))

(* qcheck: evaluation is deterministic and views never decrease under
   joins *)
let qcheck_view_monotone =
  QCheck.Test.make ~name:"expr view bounded by max reg view" ~count:200
    QCheck.(triple small_int small_int (int_bound 20))
    (fun (v1, v2, w) ->
      let env = [ (Reg.v "a", (v1, w)); (Reg.v "b", (v2, w + 1)) ] in
      let _, view =
        Expr.eval_v (lookup env) Expr.(r (Reg.v "a") + r (Reg.v "b"))
      in
      view = w + 1)

let () =
  Alcotest.run "expr"
    [ ( "eval",
        [ Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "view join" `Quick test_view_join;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "bool" `Quick test_bool;
          Alcotest.test_case "addr" `Quick test_addr ] );
      ( "static",
        [ Alcotest.test_case "regs_of" `Quick test_regs_of;
          Alcotest.test_case "loc" `Quick test_loc;
          Alcotest.test_case "instr size/bases" `Quick test_instr_size_bases ]
      );
      ( "qcheck",
        [ QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_view_monotone ] ) ]
