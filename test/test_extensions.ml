(* Tests for the extension features: huge-page (block) stage-2 mappings,
   the vGIC-lite virtual-interrupt path, userspace UART emulation, VM
   snapshots, and the strong/weak Memory-Isolation distinction. *)

open Sekvm
open Machine

let cfg = Kcore.default_boot_config

let booted () =
  let kcore = Kcore.boot cfg in
  let kserv = Kserv.create kcore ~first_free_pfn:(Kcore.kserv_base cfg) in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:2 ~image_pages:2 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot failed"
  in
  (kcore, kserv, vmid)

(* ---- block (huge-page) mappings ---- *)

let block_table () =
  let mem = Phys_mem.create 64 in
  let pool = Page_pool.create ~name:"b" ~mem ~first_pfn:1 ~n_pages:40 in
  let root = Page_pool.alloc pool in
  (mem, pool, root)

let test_block_map_walk () =
  let mem, pool, root = block_table () in
  let g = Page_table.three_level in
  (* a 2 MB block: virtual pages 512..1023 -> frames 1024.. (aligned) *)
  let va = Page_table.page_va 512 in
  (match
     Page_table.plan_map_block mem g ~pool ~root ~va ~target_pfn:1024
       ~perms:Pte.rw ~level:1
   with
  | Ok ws -> Page_table.apply_writes mem ws
  | Error _ -> Alcotest.fail "block map failed");
  (* translation offsets within the block *)
  (match Page_table.walk mem g ~root (Page_table.page_va 512) with
  | Page_table.Mapped (pfn, _) -> Alcotest.(check int) "block base" 1024 pfn
  | Page_table.Fault _ -> Alcotest.fail "fault");
  (match Page_table.walk mem g ~root (Page_table.page_va 700) with
  | Page_table.Mapped (pfn, _) ->
      Alcotest.(check int) "block offset" (1024 + 700 - 512) pfn
  | Page_table.Fault _ -> Alcotest.fail "fault");
  (* outside the block still faults *)
  (match Page_table.walk mem g ~root (Page_table.page_va 1024) with
  | Page_table.Fault _ -> ()
  | Page_table.Mapped _ -> Alcotest.fail "should fault");
  (* unmapping any covered address clears the whole block *)
  (match Page_table.plan_unmap mem g ~root ~va:(Page_table.page_va 700) with
  | Some w -> Page_table.apply_write mem w
  | None -> Alcotest.fail "no unmap plan");
  (match Page_table.walk mem g ~root (Page_table.page_va 512) with
  | Page_table.Fault _ -> ()
  | Page_table.Mapped _ -> Alcotest.fail "block survived unmap")

let test_block_misaligned_rejected () =
  let mem, pool, root = block_table () in
  let g = Page_table.three_level in
  match
    Page_table.plan_map_block mem g ~pool ~root
      ~va:(Page_table.page_va 513) ~target_pfn:1024 ~perms:Pte.rw ~level:1
  with
  | Error `Misaligned -> ()
  | Ok _ | Error `Already_mapped -> Alcotest.fail "misalignment accepted"

let test_block_extents_and_mappings () =
  let mem, pool, root = block_table () in
  let g = Page_table.three_level in
  (match
     Page_table.plan_map_block mem g ~pool ~root ~va:(Page_table.page_va 512)
       ~target_pfn:1024 ~perms:Pte.rw ~level:1
   with
  | Ok ws -> Page_table.apply_writes mem ws
  | Error _ -> Alcotest.fail "map");
  let exts = Page_table.extents mem g ~root in
  Alcotest.(check int) "one extent" 1 (List.length exts);
  Alcotest.(check int) "512 pages" 512 (List.hd exts).Page_table.e_pages;
  Alcotest.(check int) "expanded mappings" 512
    (List.length (Page_table.mappings mem g ~root))

let test_block_transactional () =
  (* a block map into a fresh tree is transactional like a deep 4K map *)
  let mem, pool, root = block_table () in
  let g = Page_table.three_level in
  let va = Page_table.page_va 512 in
  match
    Page_table.plan_map_block mem g ~pool ~root ~va ~target_pfn:1024
      ~perms:Pte.rw ~level:1
  with
  | Ok writes ->
      let bad =
        Mmu_walker.transactional_violations mem g ~root ~writes
          ~vas:[ va; Page_table.page_va 700 ]
      in
      Alcotest.(check int) "transactional" 0 (List.length bad)
  | Error _ -> Alcotest.fail "plan"

let test_npt_block_primitive () =
  let kcore, _, vmid = booted () in
  let npt = (Kcore.find_vm kcore vmid).Kcore.npt in
  (match
     Npt.set_s2pt_block npt ~cpu:0 ~ipa:(Page_table.page_va 512) ~pfn:0
       ~perms:Pte.ro ~level:1
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "npt block map failed");
  (match Npt.translate npt ~ipa:(Page_table.page_va 600) with
  | Some (pfn, perms) ->
      Alcotest.(check int) "offset into block" 88 pfn;
      Alcotest.(check bool) "read-only" false perms.Pte.writable
  | None -> Alcotest.fail "untranslated");
  (* write-once discipline also applies to block entries *)
  match
    Npt.set_s2pt_block npt ~cpu:0 ~ipa:(Page_table.page_va 512) ~pfn:512
      ~perms:Pte.rw ~level:1
  with
  | Error `Already_mapped -> ()
  | Ok () | Error `Misaligned -> Alcotest.fail "block overwritten"

(* ---- vGIC and virtual IPIs ---- *)

let test_vgic_fifo () =
  let g = Vgic.create () in
  Vgic.inject g ~vcpuid:0 ~irq:3;
  Vgic.inject g ~vcpuid:1 ~irq:4;
  Vgic.inject g ~vcpuid:0 ~irq:5;
  Alcotest.(check int) "two pending for vcpu0" 2 (Vgic.pending g ~vcpuid:0);
  Alcotest.(check (option int)) "fifo order" (Some 3) (Vgic.take g ~vcpuid:0);
  Alcotest.(check (option int)) "next" (Some 5) (Vgic.take g ~vcpuid:0);
  Alcotest.(check (option int)) "drained" None (Vgic.take g ~vcpuid:0);
  Alcotest.(check (option int)) "other vcpu untouched" (Some 4)
    (Vgic.take g ~vcpuid:1)

let test_guest_ipi_roundtrip () =
  let kcore, kserv, vmid = booted () in
  (* vCPU 0 signals vCPU 1 *)
  (match Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0 [ Vm.G_ipi (1, 7) ] with
  | [ Vm.R_unit ] -> ()
  | _ -> Alcotest.fail "ipi send failed");
  Alcotest.(check int) "pending at target" 1
    (Kcore.vgic_pending kcore ~vmid ~vcpuid:1);
  (* vCPU 1 acknowledges it *)
  (match Kserv.run_guest kserv ~cpu:2 ~vmid ~vcpuid:1 [ Vm.G_ack_irq ] with
  | [ Vm.R_value 7 ] -> ()
  | _ -> Alcotest.fail "ack failed");
  Alcotest.(check int) "vipi counted" 1 kcore.Kcore.vipis;
  (* signalling a nonexistent vCPU is denied *)
  match Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0 [ Vm.G_ipi (9, 1) ] with
  | [ Vm.R_denied ] -> ()
  | _ -> Alcotest.fail "bogus target accepted"

let test_ipi_pingpong_workload () =
  let kcore, kserv, vmid = booted () in
  ignore
    (Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
       (Vm.ipi_round ~peer:1 ~rounds:5));
  Alcotest.(check int) "five IPIs" 5 kcore.Kcore.vipis;
  Alcotest.(check int) "five pending at peer" 5
    (Kcore.vgic_pending kcore ~vmid ~vcpuid:1)

let test_uart_userspace_path () =
  let kcore, kserv, vmid = booted () in
  (match
     Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
       [ Vm.G_uart_putc 72; Vm.G_uart_putc 105 ]
   with
  | [ Vm.R_unit; Vm.R_unit ] -> ()
  | _ -> Alcotest.fail "uart writes failed");
  Alcotest.(check (list int)) "buffer in host userspace" [ 72; 105 ]
    (List.rev kserv.Kserv.uart);
  Alcotest.(check int) "userspace exits counted" 2 kcore.Kcore.mmio_user;
  Alcotest.(check int) "kernel-space exits separate" 0 kcore.Kcore.mmio_kernel

(* ---- vCPU register state across physical CPUs ---- *)

let test_vcpu_state_migrates_across_pcpus () =
  (* the content of the ACTIVE/INACTIVE protocol: registers written while
     running on one physical CPU are observed intact when the vCPU is
     next loaded on a different physical CPU *)
  let _, kserv, vmid = booted () in
  (match
     Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
       [ Vm.G_set_reg (3, 0xabc); Vm.G_get_reg 3 ]
   with
  | [ Vm.R_unit; Vm.R_value 0xabc ] -> ()
  | _ -> Alcotest.fail "set/get on the same pCPU failed");
  match Kserv.run_guest kserv ~cpu:3 ~vmid ~vcpuid:0 [ Vm.G_get_reg 3 ] with
  | [ Vm.R_value 0xabc ] -> ()
  | _ -> Alcotest.fail "register lost across the pCPU migration"

let test_vcpu_regs_isolated_between_vcpus () =
  let _, kserv, vmid = booted () in
  ignore (Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0 [ Vm.G_set_reg (0, 5) ]);
  match Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:1 [ Vm.G_get_reg 0 ] with
  | [ Vm.R_value 0 ] -> ()
  | _ -> Alcotest.fail "vCPU register state leaked between vCPUs"

let test_uart_getc_oracle () =
  (* external input is an oracle draw: deterministic per seed, different
     across seeds, and counted as a userspace exit *)
  let boot seed =
    let kcore = Kcore.boot { cfg with Kcore.oracle_seed = seed } in
    let kserv = Kserv.create kcore ~first_free_pfn:(Kcore.kserv_base cfg) in
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok vmid -> (kcore, kserv, vmid)
    | Error _ -> Alcotest.fail "boot"
  in
  let run (_, kserv, vmid) =
    List.filter_map
      (function Vm.R_value v -> Some v | _ -> None)
      (Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
         [ Vm.G_uart_getc; Vm.G_uart_getc; Vm.G_uart_getc ])
  in
  let a = run (boot 7) and b = run (boot 7) and c = run (boot 8) in
  Alcotest.(check (list int)) "same seed, same bytes" a b;
  Alcotest.(check bool) "different seed differs" true (a <> c);
  let kcore, _, _ = boot 7 in
  Alcotest.(check int) "no exits before reads" 0 kcore.Kcore.mmio_user

(* ---- guest W^X: vm_protect_page ---- *)

let test_protect_page () =
  let kcore, kserv, vmid = booted () in
  let ipa = Page_table.page_va 45 in
  (match
     Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
       [ Vm.G_write (ipa, 3); Vm.G_protect ipa; Vm.G_read ipa;
         Vm.G_write (ipa, 4) ]
   with
  | [ Vm.R_unit; Vm.R_unit; Vm.R_value 3; Vm.R_denied ] -> ()
  | rs ->
      Alcotest.failf "unexpected results: %s"
        (String.concat "," (List.map Vm.show_op_result rs)));
  (* protecting an unmapped or foreign page is denied *)
  (match Kcore.vm_protect_page kcore ~cpu:0 ~vmid ~ipa:(Page_table.page_va 200) with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "protected an unmapped page");
  (* the remap was trace-compliant: barrier + TLBI after the clear *)
  Alcotest.(check bool) "TLBI discipline held" true
    (Vrm.Check_tlbi.check kcore.Kcore.trace).Vrm.Check_tlbi.holds;
  Alcotest.(check int) "invariants" 0
    (List.length (Kcore.check_invariants kcore))

let test_protect_idempotent_and_tlb () =
  let kcore, kserv, vmid = booted () in
  let ipa = Page_table.page_va 46 in
  ignore
    (Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
       [ Vm.G_write (ipa, 1); Vm.G_read ipa ]);
  (* the read cached a writable translation in CPU 1's TLB; protecting
     must invalidate it so the next write faults instead of hitting a
     stale writable entry *)
  (match Kcore.vm_protect_page kcore ~cpu:0 ~vmid ~ipa with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "protect denied");
  (match Kcore.vm_protect_page kcore ~cpu:0 ~vmid ~ipa with
  | Ok () -> () (* idempotent *)
  | Error `Denied -> Alcotest.fail "re-protect denied");
  match Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0 [ Vm.G_write (ipa, 9) ] with
  | [ Vm.R_denied ] -> ()
  | _ -> Alcotest.fail "stale writable TLB entry survived the protect"

(* ---- snapshots and strong/weak isolation ---- *)

let test_snapshot_content () =
  let kcore, kserv, vmid = booted () in
  ignore
    (Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
       [ Vm.G_write (Page_table.page_va 40, 111) ]);
  let snap1 = Kcore.snapshot_vm kcore ~cpu:0 ~vmid in
  Alcotest.(check int) "image + data pages" 3 (List.length snap1);
  (* mutating the guest changes the digest of exactly that page *)
  ignore
    (Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
       [ Vm.G_write (Page_table.page_va 40, 222) ]);
  let snap2 = Kcore.snapshot_vm kcore ~cpu:0 ~vmid in
  let changed =
    List.filter
      (fun (vp, d) -> List.assoc vp snap1 <> d)
      snap2
  in
  Alcotest.(check int) "one page changed" 1 (List.length changed);
  Alcotest.(check int) "the data page" 40 (fst (List.hd changed))

let test_snapshot_reads_are_oracle_mediated () =
  let kcore, _, vmid = booted () in
  let before =
    (Vrm.Check_isolation.check kcore).Vrm.Check_isolation.oracle_reads
  in
  ignore (Kcore.snapshot_vm kcore ~cpu:0 ~vmid);
  let v = Vrm.Check_isolation.check kcore in
  Alcotest.(check bool) "weak isolation still holds" true
    v.Vrm.Check_isolation.holds;
  Alcotest.(check bool) "snapshot added oracle reads" true
    (v.Vrm.Check_isolation.oracle_reads > before);
  Alcotest.(check bool) "strong isolation does NOT hold (§4.3)" false
    v.Vrm.Check_isolation.strong_holds

let test_strong_isolation_without_user_reads () =
  (* a freshly booted KCore that never reads user memory satisfies even
     the strong condition *)
  let kcore = Kcore.boot cfg in
  let v = Vrm.Check_isolation.check kcore in
  Alcotest.(check bool) "weak" true v.Vrm.Check_isolation.holds;
  Alcotest.(check bool) "strong" true v.Vrm.Check_isolation.strong_holds

(* ---- perf ablations ---- *)

let test_kserv_hugepage_ablation () =
  let base = Perf.Micro.table3 () in
  let fixed = Perf.Micro.table3 ~kserv_hugepages:true () in
  let ratio rows name hw =
    (List.find
       (fun (r : Perf.Micro.row) ->
         r.Perf.Micro.bench.Perf.Micro.name = name
         && r.Perf.Micro.hw_name = hw)
       rows)
      .Perf.Micro.overhead
  in
  (* huge KServ mappings collapse the m400's TLB pressure: overhead falls
     to roughly the Seattle (dispatch-only) level *)
  List.iter
    (fun b ->
      Alcotest.(check bool) (b ^ ": ablation removes the TLB tax") true
        (ratio fixed b "m400" < ratio base b "m400" -. 0.3);
      Alcotest.(check bool) (b ^ ": near the dispatch floor") true
        (ratio fixed b "m400" < 1.45))
    [ "Hypercall"; "I/O Kernel"; "I/O User"; "Virtual IPI" ]

let qcheck_block_and_leaf_mappings_consistent =
  QCheck.Test.make
    ~name:"extents expand exactly to mappings (blocks + 4K mixed)"
    ~count:60
    QCheck.(pair (int_bound 2) (int_bound 50))
    (fun (block_slot, vp4k) ->
      let mem = Phys_mem.create 64 in
      let pool = Page_pool.create ~name:"q" ~mem ~first_pfn:1 ~n_pages:40 in
      let g = Page_table.three_level in
      let root = Page_pool.alloc pool in
      (* one 2MB block plus one 4K page in a disjoint region *)
      let block_vp = (block_slot + 2) * 512 in
      (match
         Page_table.plan_map_block mem g ~pool ~root
           ~va:(Page_table.page_va block_vp) ~target_pfn:1024 ~perms:Pte.rw
           ~level:1
       with
      | Ok ws -> Page_table.apply_writes mem ws
      | Error _ -> ());
      (match
         Page_table.plan_map mem g ~pool ~root ~va:(Page_table.page_va vp4k)
           ~target_pfn:60 ~perms:Pte.rw
       with
      | Ok ws -> Page_table.apply_writes mem ws
      | Error _ -> ());
      let expanded =
        List.concat_map
          (fun e ->
            List.init e.Page_table.e_pages (fun k ->
                (e.Page_table.e_vp + k, e.Page_table.e_pfn + k)))
          (Page_table.extents mem g ~root)
      in
      let mapped =
        List.map (fun (vp, pfn, _) -> (vp, pfn)) (Page_table.mappings mem g ~root)
      in
      List.sort compare expanded = List.sort compare mapped
      (* and every expanded page walks to its frame *)
      && List.for_all
           (fun (vp, pfn) ->
             match Page_table.walk mem g ~root (Page_table.page_va vp) with
             | Page_table.Mapped (p, _) -> p = pfn
             | Page_table.Fault _ -> false)
           mapped)

let test_tlb_sweep_monotone () =
  let sweep = Perf.Micro.tlb_sweep () in
  let rec mono = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b -. 1e-9 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "overhead falls with TLB size" true (mono sweep);
  let at n = List.assoc n sweep in
  Alcotest.(check bool) "tiny TLB ~2x" true (at 32 > 1.8);
  Alcotest.(check bool) "big TLB near dispatch floor" true (at 1024 < 1.45)

let () =
  Alcotest.run "extensions"
    [ ( "huge-pages",
        [ Alcotest.test_case "block map/walk/unmap" `Quick test_block_map_walk;
          Alcotest.test_case "misaligned rejected" `Quick
            test_block_misaligned_rejected;
          Alcotest.test_case "extents and mappings" `Quick
            test_block_extents_and_mappings;
          Alcotest.test_case "block map transactional" `Quick
            test_block_transactional;
          Alcotest.test_case "npt block primitive" `Quick
            test_npt_block_primitive ] );
      ( "vgic",
        [ Alcotest.test_case "fifo per vcpu" `Quick test_vgic_fifo;
          Alcotest.test_case "guest IPI roundtrip" `Quick
            test_guest_ipi_roundtrip;
          Alcotest.test_case "ipi ping-pong workload" `Quick
            test_ipi_pingpong_workload;
          Alcotest.test_case "uart userspace path" `Quick
            test_uart_userspace_path ] );
      ( "oracle-io",
        [ Alcotest.test_case "uart getc draws the oracle" `Quick
            test_uart_getc_oracle ] );
      ( "wx-protect",
        [ Alcotest.test_case "protect page" `Quick test_protect_page;
          Alcotest.test_case "idempotent + TLB shootdown" `Quick
            test_protect_idempotent_and_tlb ] );
      ( "vcpu-state",
        [ Alcotest.test_case "migrates across pCPUs" `Quick
            test_vcpu_state_migrates_across_pcpus;
          Alcotest.test_case "isolated between vCPUs" `Quick
            test_vcpu_regs_isolated_between_vcpus ] );
      ( "snapshots",
        [ Alcotest.test_case "content digests" `Quick test_snapshot_content;
          Alcotest.test_case "oracle-mediated" `Quick
            test_snapshot_reads_are_oracle_mediated;
          Alcotest.test_case "strong isolation baseline" `Quick
            test_strong_isolation_without_user_reads ] );
      ( "ablations",
        [ Alcotest.test_case "kserv hugepages" `Quick
            test_kserv_hugepage_ablation;
          Alcotest.test_case "tlb sweep" `Quick test_tlb_sweep_monotone;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_block_and_leaf_mappings_consistent ] )
    ]
