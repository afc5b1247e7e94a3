(* The SAT-based BMC backend cross-validated against the explicit-state
   engines: solver unit tests (pigeonhole UNSAT, assumption cores, random
   3-CNF vs brute force), golden digest parity over the whole litmus
   suite under both memory models, the writer family that outgrows the
   explicit enumerator, random-program equivalence, and the bmc payload
   codec. *)

open Memmodel

(* ---- SAT solver units ---- *)

(* Pigeonhole PHP(p -> h): p pigeons into h holes, UNSAT iff p > h.
   Classic resolution-hard family; exercises learning and restarts. *)
let pigeonhole p h =
  let s = Bmc.Sat.create () in
  let var = Array.init p (fun _ -> Array.init h (fun _ -> Bmc.Sat.new_var s)) in
  for i = 0 to p - 1 do
    Bmc.Sat.add_clause s (Array.to_list var.(i))
  done;
  for j = 0 to h - 1 do
    for i = 0 to p - 1 do
      for i' = i + 1 to p - 1 do
        Bmc.Sat.add_clause s [ -var.(i).(j); -var.(i').(j) ]
      done
    done
  done;
  Bmc.Sat.solve s

let test_pigeonhole () =
  Alcotest.(check bool) "PHP(4->3) unsat" true (pigeonhole 4 3 = Bmc.Sat.Unsat);
  Alcotest.(check bool) "PHP(5->4) unsat" true (pigeonhole 5 4 = Bmc.Sat.Unsat);
  Alcotest.(check bool) "PHP(4->4) sat" true (pigeonhole 4 4 = Bmc.Sat.Sat)

let test_unsat_core () =
  (* clauses: a -> x, b -> ~x, c free. Assuming {a, b, c} is UNSAT and
     the core must be a subset of the assumptions that is itself UNSAT
     (in particular it need not mention c). *)
  let s = Bmc.Sat.create () in
  let a = Bmc.Sat.new_var s in
  let b = Bmc.Sat.new_var s in
  let c = Bmc.Sat.new_var s in
  let x = Bmc.Sat.new_var s in
  Bmc.Sat.add_clause s [ -a; x ];
  Bmc.Sat.add_clause s [ -b; -x ];
  let assumptions = [ a; b; c ] in
  Alcotest.(check bool) "assumptions unsat" true
    (Bmc.Sat.solve ~assumptions s = Bmc.Sat.Unsat);
  let core = Bmc.Sat.unsat_core s in
  Alcotest.(check bool) "core non-empty" true (core <> []);
  Alcotest.(check bool) "core subset of assumptions" true
    (List.for_all (fun l -> List.mem l assumptions) core);
  Alcotest.(check bool) "core does not drag in c" true (not (List.mem c core));
  Alcotest.(check bool) "core alone is unsat" true
    (Bmc.Sat.solve ~assumptions:core s = Bmc.Sat.Unsat);
  (* dropping either side of the conflict makes it satisfiable again *)
  Alcotest.(check bool) "a alone sat" true
    (Bmc.Sat.solve ~assumptions:[ a; c ] s = Bmc.Sat.Sat)

(* Random 3-CNF instances near the phase transition, checked against a
   brute-force enumeration; when the solver answers Sat its model must
   satisfy every clause. *)
let test_random_3cnf () =
  Random.init 0x5eed;
  for _ = 1 to 200 do
    let nvars = 4 + Random.int 5 in
    let nclauses = 5 + Random.int (4 * nvars) in
    let clauses =
      List.init nclauses (fun _ ->
          List.init 3 (fun _ ->
              let v = 1 + Random.int nvars in
              if Random.bool () then v else -v))
    in
    let s = Bmc.Sat.create () in
    for _ = 1 to nvars do
      ignore (Bmc.Sat.new_var s)
    done;
    List.iter (Bmc.Sat.add_clause s) clauses;
    let verdict = Bmc.Sat.solve s in
    let eval assign =
      List.for_all
        (List.exists (fun l ->
             if l > 0 then assign.(l - 1) else not assign.(-l - 1)))
        clauses
    in
    let brute = ref false in
    for m = 0 to (1 lsl nvars) - 1 do
      if not !brute then
        if eval (Array.init nvars (fun i -> m land (1 lsl i) <> 0)) then
          brute := true
    done;
    Alcotest.(check bool) "solver verdict matches brute force" !brute
      (verdict = Bmc.Sat.Sat);
    if verdict = Bmc.Sat.Sat then
      Alcotest.(check bool) "model satisfies the formula" true
        (eval (Array.init nvars (fun i -> Bmc.Sat.value s (i + 1))))
  done

(* ---- golden digest parity over the litmus suite ---- *)

let test_suite_parity () =
  List.iter
    (fun (t : Litmus.t) ->
      let prog = t.Litmus.prog in
      let d = Fingerprint.behaviors in
      let sc_ref = Sc.run prog and sc_bmc = Bmc.run_sc prog in
      if d sc_ref <> d sc_bmc then
        Alcotest.failf "%s: SC digest divergence@.explicit: %a@.bmc: %a"
          prog.Prog.name Behavior.pp sc_ref Behavior.pp sc_bmc;
      let rm_ref = Axiomatic.run prog and rm_bmc = Bmc.run prog in
      if d rm_ref <> d rm_bmc then
        Alcotest.failf "%s: Arm digest divergence@.explicit: %a@.bmc: %a"
          prog.Prog.name Behavior.pp rm_ref Behavior.pp rm_bmc)
    Litmus_suite.all

let test_suite_verdicts () =
  (* the BMC behavior set must decide every suite test's exists-clause
     exactly as the recorded expectations say *)
  List.iter
    (fun (t : Litmus.t) ->
      let rm = Bmc.check ~mode:Bmc.Arm t.Litmus.prog in
      let sc = Bmc.check ~mode:Bmc.Sc t.Litmus.prog in
      Alcotest.(check bool)
        (t.Litmus.prog.Prog.name ^ " complete")
        true
        (rm.Bmc.complete && sc.Bmc.complete);
      Alcotest.(check bool)
        (t.Litmus.prog.Prog.name ^ " rm verdict")
        t.Litmus.expect_rm
        (Behavior.satisfiable t.Litmus.exists rm.Bmc.behaviors);
      Alcotest.(check bool)
        (t.Litmus.prog.Prog.name ^ " sc verdict")
        t.Litmus.expect_sc
        (Behavior.satisfiable t.Litmus.exists sc.Bmc.behaviors))
    Litmus_suite.all

(* ---- random straight-line equivalence ---- *)

let gen_thread tid =
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
  let instr =
    frequency
      [ (3, map2 (fun b o -> `Load (b, o)) base lord);
        (3, map3 (fun b v o -> `Store (b, v, o)) base (int_range 1 2) word);
        (1, map2 (fun b o -> `Faa (b, o)) base lord);
        (1, oneofl [ `Dmb Instr.Dmb_full; `Dmb Instr.Dmb_ld; `Dmb Instr.Dmb_st ])
      ]
  in
  let rec build n acc =
    if n = 0 then return (List.rev acc)
    else
      instr >>= fun op ->
      let i =
        match op with
        | `Load (b, o) -> Instr.load ~order:o (fresh_reg ()) (Expr.at b)
        | `Store (b, v, o) -> Instr.store ~order:o (Expr.at b) (Expr.c v)
        | `Faa (b, o) -> Instr.faa ~order:o (fresh_reg ()) (Expr.at b) (Expr.c 1)
        | `Dmb k -> Instr.Barrier k
      in
      build (n - 1) (i :: acc)
  in
  int_range 1 3 >>= fun n -> build n []

let gen_prog =
  QCheck.Gen.map2
    (fun c1 c2 ->
      Prog.make ~name:"rand-bmc"
        ~observables:
          [ Prog.Obs_loc (Loc.v "x"); Prog.Obs_loc (Loc.v "y");
            Prog.Obs_reg (1, Reg.v "t1_r1"); Prog.Obs_reg (2, Reg.v "t2_r1") ]
        [ Prog.thread 1 c1; Prog.thread 2 c2 ])
    (gen_thread 1) (gen_thread 2)

let report_mismatch prog a b =
  Format.eprintf "@.MISMATCH on:@.";
  List.iter
    (fun th ->
      Format.eprintf "thread %d:@." th.Prog.tid;
      List.iter (fun i -> Format.eprintf "  %s@." (Instr.show i)) th.Prog.code)
    prog.Prog.threads;
  Format.eprintf "explicit-only: %a@.bmc-only: %a@." Behavior.pp
    (Behavior.diff a b) Behavior.pp (Behavior.diff b a)

let qcheck_arm_equiv =
  QCheck.Test.make ~name:"Bmc.run = Axiomatic.run on random programs"
    ~count:400 (QCheck.make gen_prog) (fun prog ->
      let ax = Axiomatic.run prog in
      let bm = Bmc.run prog in
      if Behavior.equal ax bm then true
      else begin
        report_mismatch prog ax bm;
        false
      end)

let qcheck_sc_equiv =
  QCheck.Test.make ~name:"Bmc.run_sc = Sc.run on random programs" ~count:400
    (QCheck.make gen_prog) (fun prog ->
      let sc = Sc.run prog in
      let bm = Bmc.run_sc prog in
      if Behavior.equal sc bm then true
      else begin
        report_mismatch prog sc bm;
        false
      end)

(* ---- fragment boundary and bound semantics ---- *)

let test_unsupported_message () =
  let prog =
    Prog.make ~name:"frag" ~observables:[]
      [ Prog.thread 1 [ Instr.Nop; Instr.Panic ] ]
  in
  match Bmc.run prog with
  | _ -> Alcotest.fail "expected Unsupported"
  | exception Bmc.Unsupported msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      let mem needle =
        Alcotest.(check bool)
          (Printf.sprintf "message %S mentions %s" msg needle)
          true (contains msg needle)
      in
      mem "thread 1";
      mem "pc 1"

let test_bound_limited () =
  (* a loop that runs past the default unrolling bound: the verdict must
     be flagged bound-limited, never silently complete *)
  let ri = Reg.v "i" in
  let x = Expr.at "x" in
  let prog =
    Prog.make ~name:"loopy" ~observables:[ Prog.Obs_loc (Loc.v "x") ]
      [ Prog.thread 1
          [ Instr.move ri (Expr.c 0);
            Instr.while_
              Expr.(r ri < c 100)
              [ Instr.store x (Expr.r ri); Instr.move ri Expr.(r ri + c 1) ]
          ]
      ]
  in
  let res = Bmc.check ~mode:Bmc.Sc prog in
  Alcotest.(check bool) "bound-limited" false res.Bmc.complete;
  (* a loop that exits within the bound is complete *)
  let short =
    Prog.make ~name:"shorty" ~observables:[ Prog.Obs_loc (Loc.v "x") ]
      [ Prog.thread 1
          [ Instr.move ri (Expr.c 0);
            Instr.while_
              Expr.(r ri < c 2)
              [ Instr.store x (Expr.r ri); Instr.move ri Expr.(r ri + c 1) ]
          ]
      ]
  in
  Alcotest.(check bool) "within bound is complete" true
    (Bmc.check ~mode:Bmc.Sc short).Bmc.complete

(* ---- the writer family: interleavings explode, models do not ---- *)

(* [Bench_families.bmc_family n]: n writers store 1 to x, one reader
   loads x twice. The explicit SC enumerator without symmetry reduction
   visits 6 * 2^n - 3 states, while the behavior set stays the same 3
   outcomes. BMC must decide the family completely at N=14, where the
   bench's explicit enumerator runs past its 0.5 s budget; its behavior
   set must equal the explicit one, computed with symmetry reduction
   (87 canonical states at N=14). *)
let test_writers_family () =
  let visited n =
    let _, (s : Engine.stats) =
      Sc.run_stats ~sym:false (Bench_families.bmc_family n)
    in
    s.Engine.visited
  in
  let v4 = visited 4 and v8 = visited 8 in
  Alcotest.(check int) "explicit N=4 visited" 93 v4;
  Alcotest.(check int) "explicit N=8 visited" 1_533 v8;
  Alcotest.(check bool) "visited at least doubles per writer" true
    (v8 >= v4 * 16);
  let prog = Bench_families.bmc_family 14 in
  let r = Bmc.check ~mode:Bmc.Sc prog in
  Alcotest.(check bool) "bmc N=14 complete" true r.Bmc.complete;
  Alcotest.(check int) "bmc N=14 outcomes" 3
    (Behavior.cardinal r.Bmc.behaviors);
  Alcotest.(check string) "bmc N=14 = explicit SC"
    (Fingerprint.behaviors (Sc.run prog))
    (Fingerprint.behaviors r.Bmc.behaviors)

(* ---- codec round-trip ---- *)

let test_codec_roundtrip () =
  let t = List.hd Litmus_suite.all in
  let rm = Bmc.check ~mode:Bmc.Arm t.Litmus.prog in
  let sc = Bmc.check ~mode:Bmc.Sc t.Litmus.prog in
  let s = Cache.Codec.bmc_summary t ~rm ~sc in
  let j = Cache.Codec.bmc_to_json s in
  let s' = Cache.Codec.bmc_of_json j in
  Alcotest.(check string) "prog digest" s.Cache.Codec.b_prog_digest
    s'.Cache.Codec.b_prog_digest;
  Alcotest.(check bool) "rm behaviors" true
    (Behavior.equal s.Cache.Codec.b_rm s'.Cache.Codec.b_rm);
  Alcotest.(check bool) "sc behaviors" true
    (Behavior.equal s.Cache.Codec.b_sc s'.Cache.Codec.b_sc);
  Alcotest.(check bool) "rm_sat preserved" s.Cache.Codec.b_rm_sat
    s'.Cache.Codec.b_rm_sat;
  (* tampering with the behavior set must trip the digest check *)
  let tampered =
    match j with
    | Cache.Json.Obj fields ->
        Cache.Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "rm_digest" then (k, Cache.Json.String "deadbeef")
               else (k, v))
             fields)
    | _ -> Alcotest.fail "bmc payload is not an object"
  in
  match Cache.Codec.bmc_of_json tampered with
  | _ -> Alcotest.fail "tampered payload accepted"
  | exception Cache.Json.Decode _ -> ()

let () =
  Alcotest.run "bmc"
    [ ( "sat",
        [ Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole;
          Alcotest.test_case "assumption cores" `Quick test_unsat_core;
          Alcotest.test_case "random 3-cnf vs brute force" `Quick
            test_random_3cnf ] );
      ( "parity",
        [ Alcotest.test_case "litmus-suite digest parity" `Quick
            test_suite_parity;
          Alcotest.test_case "litmus-suite verdicts" `Quick
            test_suite_verdicts;
          Alcotest.test_case "writer family decided at N=14" `Quick
            test_writers_family ] );
      ( "qcheck",
        [ QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_arm_equiv;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_sc_equiv ] );
      ( "fragment",
        [ Alcotest.test_case "unsupported names thread and pc" `Quick
            test_unsupported_message;
          Alcotest.test_case "bound-limited verdicts" `Quick
            test_bound_limited ] );
      ( "codec",
        [ Alcotest.test_case "bmc payload round-trip" `Quick
            test_codec_roundtrip ] ) ]
