(* Tests for the six wDRF condition checkers: each must accept the
   conforming implementation and reject a seeded violation. *)

open Sekvm
open Machine

let cfg = Kcore.default_boot_config

let booted () =
  let kcore = Kcore.boot cfg in
  let kserv = Kserv.create kcore ~first_free_pfn:(Kcore.kserv_base cfg) in
  (kcore, kserv)

(* ---- condition 1: DRF-Kernel ---- *)

let test_drf_positive () =
  let e = Kernel_progs.vmid_alloc in
  Alcotest.(check bool) "holds" true
    (Vrm.Check_drf.check ~exempt:e.Kernel_progs.exempt e.Kernel_progs.prog)
      .Vrm.Check_drf.holds

let test_drf_negative () =
  let e = Kernel_progs.unlocked_counter in
  Alcotest.(check bool) "violated" false
    (Vrm.Check_drf.check ~exempt:e.Kernel_progs.exempt e.Kernel_progs.prog)
      .Vrm.Check_drf.holds

(* ---- condition 2: No-Barrier-Misuse ---- *)

let test_barrier_positive () =
  List.iter
    (fun (e : Kernel_progs.entry) ->
      Alcotest.(check bool)
        (e.Kernel_progs.name ^ " barriers ok")
        true
        (Vrm.Check_barrier.check e.Kernel_progs.prog).Vrm.Check_barrier.holds)
    Kernel_progs.corpus

let test_barrier_negative () =
  List.iter
    (fun (e : Kernel_progs.entry) ->
      Alcotest.(check bool)
        (e.Kernel_progs.name ^ " rejected")
        false
        (Vrm.Check_barrier.check e.Kernel_progs.prog).Vrm.Check_barrier.holds)
    [ Kernel_progs.vmid_alloc_nobarrier; Kernel_progs.vcpu_switch_nobarrier ]

let test_barrier_dmb_fulfillment () =
  (* standalone DMBs fulfill pull/push when correctly placed *)
  let open Memmodel in
  let good =
    Prog.make ~name:"dmb-good"
      ~observables:[ Prog.Obs_loc (Loc.v "x") ]
      [ Prog.thread 1
          [ Instr.dmb;
            Instr.pull [ "x" ];
            Instr.store (Expr.at "x") (Expr.c 1);
            Instr.push [ "x" ];
            Instr.dmb ] ]
  in
  Alcotest.(check bool) "dmb on both sides" true
    (Vrm.Check_barrier.check good).Vrm.Check_barrier.holds;
  let bad =
    Prog.make ~name:"dmb-bad"
      ~observables:[ Prog.Obs_loc (Loc.v "x") ]
      [ Prog.thread 1
          [ Instr.pull [ "x" ];
            Instr.store (Expr.at "x") (Expr.c 1);
            Instr.push [ "x" ] ] ]
  in
  Alcotest.(check bool) "no barrier anywhere" false
    (Vrm.Check_barrier.check bad).Vrm.Check_barrier.holds;
  (* a DMB *after* the protected access does not fulfill the pull *)
  let late =
    Prog.make ~name:"dmb-late"
      ~observables:[ Prog.Obs_loc (Loc.v "x") ]
      [ Prog.thread 1
          [ Instr.pull [ "x" ];
            Instr.store (Expr.at "x") (Expr.c 1);
            Instr.dmb;
            Instr.push [ "x" ];
            Instr.dmb ] ]
  in
  Alcotest.(check bool) "late dmb insufficient for the pull" false
    (Vrm.Check_barrier.check late).Vrm.Check_barrier.holds

(* ---- condition 3: Write-Once-Kernel-Mapping ---- *)

let test_write_once_positive () =
  let kcore, _ = booted () in
  ignore (El2_pt.remap_pfn kcore.Kcore.el2 ~cpu:0 ~pfn:600);
  let v = Vrm.Check_write_once.check kcore.Kcore.trace in
  Alcotest.(check bool) "holds" true v.Vrm.Check_write_once.holds;
  Alcotest.(check bool) "counted writes" true
    (v.Vrm.Check_write_once.el2_writes > cfg.Kcore.n_pages)

let test_write_once_negative () =
  let kcore, _ = booted () in
  (* the [force] backdoor overwrites a live linear-map entry *)
  (match
     El2_pt.set_el2_pt ~force:true kcore.Kcore.el2 ~cpu:0
       ~va:(Page_table.page_va 5) ~pfn:6 ~perms:Pte.rw
   with
  | Ok () -> ()
  | Error `Already_mapped -> Alcotest.fail "force failed");
  let v = Vrm.Check_write_once.check kcore.Kcore.trace in
  Alcotest.(check bool) "violated" false v.Vrm.Check_write_once.holds;
  Alcotest.(check int) "one witness" 1
    (List.length v.Vrm.Check_write_once.violations)

(* ---- condition 4: Transactional-Page-Table ---- *)

let test_transactional_audits () =
  let kcore, _ = booted () in
  let vmid = Kcore.register_vm kcore ~cpu:0 in
  let npt = (Kcore.find_vm kcore vmid).Kcore.npt in
  let ipa = Page_table.page_va 120 in
  (match
     Vrm.Check_transactional.audit_map npt ~cpu:0 ~ipa ~pfn:800
       ~perms:Pte.rw ~check_vas:[ ipa + 4096 ]
   with
  | Ok v ->
      Alcotest.(check bool) "deep map transactional" true
        v.Vrm.Check_transactional.holds;
      Alcotest.(check bool) "multi-write" true
        (v.Vrm.Check_transactional.n_writes > 1)
  | Error `Already_mapped -> Alcotest.fail "map");
  (match
     Vrm.Check_transactional.audit_unmap npt ~cpu:0 ~ipa ~check_vas:[]
   with
  | Ok v ->
      Alcotest.(check bool) "unmap transactional" true
        v.Vrm.Check_transactional.holds
  | Error `Not_mapped -> Alcotest.fail "unmap")

let test_transactional_example5_rejected () =
  let kcore, _ = booted () in
  let vmid = Kcore.register_vm kcore ~cpu:0 in
  let npt = (Kcore.find_vm kcore vmid).Kcore.npt in
  let ipa = Page_table.page_va 130 in
  (match Npt.set_s2pt npt ~cpu:0 ~ipa ~pfn:801 ~perms:Pte.rw with
  | Ok () -> ()
  | Error `Already_mapped -> Alcotest.fail "map");
  match
    Vrm.Check_transactional.audit_example5 npt ~ipa ~pfn:802 ~perms:Pte.rw
  with
  | Some v ->
      Alcotest.(check bool) "example 5 rejected" false
        v.Vrm.Check_transactional.holds;
      Alcotest.(check bool) "witness produced" true
        (v.Vrm.Check_transactional.witnesses <> [])
  | None -> Alcotest.fail "no example-5 batch constructed"

(* ---- condition 5: Sequential-TLB-Invalidation ---- *)

let unmap_with kcore ~skip_barrier ~skip_tlbi =
  let vmid = Kcore.register_vm kcore ~cpu:0 in
  let npt = (Kcore.find_vm kcore vmid).Kcore.npt in
  let ipa = Page_table.page_va 140 in
  (match Npt.set_s2pt npt ~cpu:0 ~ipa ~pfn:810 ~perms:Pte.rw with
  | Ok () -> ()
  | Error `Already_mapped -> Alcotest.fail "map");
  match Npt.clear_s2pt ~skip_barrier ~skip_tlbi npt ~cpu:0 ~ipa with
  | Ok () -> ()
  | Error `Not_mapped -> Alcotest.fail "unmap"

let test_tlbi_positive () =
  let kcore, _ = booted () in
  unmap_with kcore ~skip_barrier:false ~skip_tlbi:false;
  let v = Vrm.Check_tlbi.check kcore.Kcore.trace in
  Alcotest.(check bool) "holds" true v.Vrm.Check_tlbi.holds;
  Alcotest.(check bool) "checked at least one unmap" true
    (v.Vrm.Check_tlbi.unmaps_checked >= 1)

let test_tlbi_missing_barrier () =
  let kcore, _ = booted () in
  unmap_with kcore ~skip_barrier:true ~skip_tlbi:false;
  let v = Vrm.Check_tlbi.check kcore.Kcore.trace in
  Alcotest.(check bool) "violated" false v.Vrm.Check_tlbi.holds;
  Alcotest.(check bool) "reason is the barrier" true
    (List.exists
       (fun x -> x.Vrm.Check_tlbi.v_reason = `No_barrier)
       v.Vrm.Check_tlbi.violations);
  Alcotest.(check string) "the report names the write"
    "Sequential-TLB-Invalidation: VIOLATED (1 unguarded unmaps: cpu 0, table \
     (Trace.T_stage2 1), frame 43 index 140: missing barrier)"
    (Format.asprintf "%a" Vrm.Check_tlbi.pp_verdict v)

let test_tlbi_missing_tlbi () =
  let kcore, _ = booted () in
  unmap_with kcore ~skip_barrier:false ~skip_tlbi:true;
  let v = Vrm.Check_tlbi.check kcore.Kcore.trace in
  Alcotest.(check bool) "violated" false v.Vrm.Check_tlbi.holds;
  Alcotest.(check bool) "reason is the TLBI" true
    (List.exists
       (fun x -> x.Vrm.Check_tlbi.v_reason = `No_tlbi)
       v.Vrm.Check_tlbi.violations)

let test_tlbi_smmu_paths () =
  let kcore, _ = booted () in
  (match Kcore.smmu_attach kcore ~cpu:0 ~device:1 ~owner:S2page.Kserv with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "attach");
  let pfn = Kcore.kserv_base cfg in
  (match Kcore.smmu_map kcore ~cpu:0 ~device:1 ~iova:0 ~pfn with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "smmu map");
  (match Kcore.smmu_unmap kcore ~cpu:0 ~device:1 ~iova:0 with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "smmu unmap");
  Alcotest.(check bool) "smmu unmap covered" true
    (Vrm.Check_tlbi.check kcore.Kcore.trace).Vrm.Check_tlbi.holds

(* ---- condition 6: Memory-Isolation ---- *)

let test_isolation_positive () =
  let out = Vrm.Scenario.standard_run () in
  let v = Vrm.Check_isolation.check out.Vrm.Scenario.kcore in
  Alcotest.(check bool) "holds" true v.Vrm.Check_isolation.holds;
  Alcotest.(check int) "no raw user reads" 0 v.Vrm.Check_isolation.raw_user_reads;
  Alcotest.(check bool) "oracle reads recorded" true
    (v.Vrm.Check_isolation.oracle_reads > 0)

let test_isolation_raw_read_flagged () =
  let kcore, _ = booted () in
  (* inject a raw (non-oracle) read of KServ memory into the trace *)
  Trace.record kcore.Kcore.trace
    (Trace.E_mem_read { cpu = 0; pfn = 900; owner = S2page.Kserv });
  let v = Vrm.Check_isolation.check kcore in
  Alcotest.(check bool) "violated" false v.Vrm.Check_isolation.holds;
  Alcotest.(check int) "one raw read" 1 v.Vrm.Check_isolation.raw_user_reads

let test_isolation_smmu_disabled_flagged () =
  let kcore, _ = booted () in
  kcore.Kcore.smmu_ops.Smmu_ops.smmu.Smmu.enabled <- false;
  let v = Vrm.Check_isolation.check kcore in
  Alcotest.(check bool) "violated" false v.Vrm.Check_isolation.holds

let () =
  Alcotest.run "checkers"
    [ ( "drf-kernel",
        [ Alcotest.test_case "positive" `Quick test_drf_positive;
          Alcotest.test_case "negative" `Quick test_drf_negative ] );
      ( "no-barrier-misuse",
        [ Alcotest.test_case "corpus passes" `Quick test_barrier_positive;
          Alcotest.test_case "buggy variants fail" `Quick
            test_barrier_negative;
          Alcotest.test_case "dmb fulfillment" `Quick
            test_barrier_dmb_fulfillment ] );
      ( "write-once",
        [ Alcotest.test_case "positive" `Quick test_write_once_positive;
          Alcotest.test_case "negative" `Quick test_write_once_negative ] );
      ( "transactional",
        [ Alcotest.test_case "map/unmap audits" `Quick
            test_transactional_audits;
          Alcotest.test_case "example 5 rejected" `Quick
            test_transactional_example5_rejected ] );
      ( "tlb-invalidation",
        [ Alcotest.test_case "positive" `Quick test_tlbi_positive;
          Alcotest.test_case "missing barrier" `Quick
            test_tlbi_missing_barrier;
          Alcotest.test_case "missing tlbi" `Quick test_tlbi_missing_tlbi;
          Alcotest.test_case "smmu paths" `Quick test_tlbi_smmu_paths ] );
      ( "memory-isolation",
        [ Alcotest.test_case "positive" `Quick test_isolation_positive;
          Alcotest.test_case "raw read flagged" `Quick
            test_isolation_raw_read_flagged;
          Alcotest.test_case "smmu disabled flagged" `Quick
            test_isolation_smmu_disabled_flagged ] ) ]
