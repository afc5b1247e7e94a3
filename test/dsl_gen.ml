(* Random DSL code shared by the test executables: the analyzer's
   random-program oracle and the state-key relation properties. *)

(* What [gen_code] draws, by instruction kind and load order (see
   Cover). *)
let census = Cover.create ()

(* Random code for thread [tid] of a two-thread DSL program, drawn from
   [rng]. Guards branch only on freshly loaded registers (statically
   opaque), pulls and pushes are always matched, and every EL2 store
   writes the same constant. *)
let gen_code rng ~loops tid =
  let open Memmodel in
  let below = Random.State.int rng and cover = Cover.hit census in
  let fresh = ref 0 in
  let reg () =
    incr fresh;
    Reg.v (Printf.sprintf "t%d_r%d" tid !fresh)
  in
  let rec block depth len =
    List.concat (List.init len (fun _ -> instr depth))
  and instr depth =
    match below (if depth > 0 then 9 else 7) with
    | 0 ->
        let o, name =
          if below 2 = 0 then (Instr.Plain, "load plain")
          else (Instr.Acquire, "load acquire")
        in
        cover name;
        [ Instr.load ~order:o (reg ()) (Expr.at "data") ]
    | 1 ->
        cover "store";
        [ Instr.store (Expr.at "data") (Expr.c (1 + below 2)) ]
    | 2 ->
        cover "store el2";
        [ Instr.store
            (Expr.at ~offset:(Expr.c (below 2)) "el2_m")
            (Expr.c 1) ]
    | 3 ->
        let b, name =
          match below 3 with
          | 0 -> (Instr.dmb, "dmb")
          | 1 -> (Instr.dmb_ld, "dmb ld")
          | _ -> (Instr.dmb_st, "dmb st")
        in
        cover name;
        [ b ]
    | 4 ->
        cover "pull/push";
        (Instr.pull [ "data" ] :: block 0 (1 + below 2))
        @ [ Instr.push [ "data" ] ]
    | 5 ->
        cover "store release";
        [ Instr.store_rel (Expr.at "data") (Expr.c 1) ]
    | 6 ->
        cover "nop";
        [ Instr.Nop ]
    | n ->
        let g = reg () in
        let cond = Expr.Cmp (Expr.Eq, Expr.r g, Expr.c 0) in
        let sub () = block (depth - 1) (1 + below 2) in
        if n = 8 && loops then (
          cover "while";
          [ Instr.load g (Expr.at "data"); Instr.while_ cond (sub ()) ])
        else (
          cover "if";
          [ Instr.load g (Expr.at "data");
            Instr.if_ cond (sub ()) (sub ()) ])
  in
  block 2 (3 + below 3)
