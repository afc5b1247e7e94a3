(* N writer threads all storing 1 to [x], one reader loading [x] twice.
   The explicit SC enumerator's state space grows as ~2^N (same-location
   writes conflict, so POR cannot commute them), while the behavior set
   is always the same 3 outcomes — (r0,r1) ∈ {(0,0),(0,1),(1,1)};
   (1,0) is forbidden by coherence. The SAT backend's work scales with
   the number of observationally distinct models, not interleavings, so
   it finishes in milliseconds at any N. *)
let bmc_family n =
  let x = Memmodel.Expr.at "x" in
  let r0 = Memmodel.Reg.v "r0" and r1 = Memmodel.Reg.v "r1" in
  let writers =
    List.init n (fun i ->
        Memmodel.Prog.thread (i + 2) [ Memmodel.Instr.store x (Memmodel.Expr.c 1) ])
  in
  let reader =
    Memmodel.Prog.thread 1
      [ Memmodel.Instr.load r0 x; Memmodel.Instr.load r1 x ]
  in
  Memmodel.Prog.make
    ~name:(Printf.sprintf "bmc-writers-%d" n)
    ~observables:[ Memmodel.Prog.Obs_reg (1, r0); Memmodel.Prog.Obs_reg (1, r1) ]
    (reader :: writers)
