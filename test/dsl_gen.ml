(* Random DSL code shared by the test executables: the analyzer's
   random-program oracle and the state-key relation properties. *)

(* A small deterministic PRNG so failures reproduce from the seed. *)
module Rng = struct
  type t = { mutable s : int }

  let create seed = { s = (seed * 2 + 1) land 0x3fffffff }

  let next t =
    t.s <- (t.s * 1103515245 + 12345) land 0x3fffffff;
    t.s

  let below t n = next t mod n
end

(* Random code for thread [tid] of a two-thread DSL program. Guards
   branch only on freshly loaded registers (statically opaque), pulls
   and pushes are always matched, and every EL2 store writes the same
   constant. *)
let gen_code rng ~loops tid =
  let open Memmodel in
  let fresh = ref 0 in
  let reg () =
    incr fresh;
    Reg.v (Printf.sprintf "t%d_r%d" tid !fresh)
  in
  let rec block depth len =
    List.concat (List.init len (fun _ -> instr depth))
  and instr depth =
    match Rng.below rng (if depth > 0 then 9 else 7) with
    | 0 ->
        let o = if Rng.below rng 2 = 0 then Instr.Plain else Instr.Acquire in
        [ Instr.load ~order:o (reg ()) (Expr.at "data") ]
    | 1 -> [ Instr.store (Expr.at "data") (Expr.c (1 + Rng.below rng 2)) ]
    | 2 ->
        [ Instr.store
            (Expr.at ~offset:(Expr.c (Rng.below rng 2)) "el2_m")
            (Expr.c 1) ]
    | 3 ->
        [ (match Rng.below rng 3 with
          | 0 -> Instr.dmb
          | 1 -> Instr.dmb_ld
          | _ -> Instr.dmb_st) ]
    | 4 ->
        (Instr.pull [ "data" ] :: block 0 (1 + Rng.below rng 2))
        @ [ Instr.push [ "data" ] ]
    | 5 -> [ Instr.store_rel (Expr.at "data") (Expr.c 1) ]
    | 6 -> [ Instr.Nop ]
    | n ->
        let g = reg () in
        let cond = Expr.Cmp (Expr.Eq, Expr.r g, Expr.c 0) in
        let sub () = block (depth - 1) (1 + Rng.below rng 2) in
        if n = 8 && loops then
          [ Instr.load g (Expr.at "data"); Instr.while_ cond (sub ()) ]
        else
          [ Instr.load g (Expr.at "data");
            Instr.if_ cond (sub ()) (sub ()) ]
  in
  block 2 (3 + Rng.below rng 3)
