(* Integration tests for KCore: boot layout, the EL2 write-once page
   table, VM lifecycle (registration, image authentication, faults,
   sharing, teardown), the vCPU run protocol, and the SMMU hypercalls.
   Security invariants are re-checked after every phase. *)

open Sekvm
open Machine

let cfg = Kcore.default_boot_config

let fresh () =
  let kcore = Kcore.boot cfg in
  let kserv = Kserv.create kcore ~first_free_pfn:(Kcore.kserv_base cfg) in
  (kcore, kserv)

let check_invariants kcore label =
  let bad = Kcore.check_invariants kcore in
  if bad <> [] then
    Alcotest.failf "%s: %d invariant violations (%s)" label (List.length bad)
      (String.concat "; " (List.map (fun v -> v.Kcore.detail) bad))

let test_boot_layout () =
  let kcore, _ = fresh () in
  (* everything below kserv_base is KCore's; above is KServ's *)
  Alcotest.(check bool) "page 0 kcore" true
    (S2page.owner kcore.Kcore.s2page 0 = S2page.Kcore);
  Alcotest.(check bool) "kserv_base boundary" true
    (S2page.owner kcore.Kcore.s2page (Kcore.kserv_base cfg) = S2page.Kserv);
  (* EL2 linear map covers all of physical memory 1:1 *)
  List.iter
    (fun pfn ->
      match El2_pt.translate kcore.Kcore.el2 ~va:(Page_table.page_va pfn) with
      | Some (p, _) -> Alcotest.(check int) "linear map" pfn p
      | None -> Alcotest.fail "linear map hole")
    [ 0; 1; 100; cfg.Kcore.n_pages - 1 ];
  check_invariants kcore "boot"

let test_el2_write_once () =
  let kcore, _ = fresh () in
  let el2 = kcore.Kcore.el2 in
  (* remap_pfn maps into the remap region and returns distinct VAs *)
  let va1 = El2_pt.remap_pfn el2 ~cpu:0 ~pfn:700 in
  let va2 = El2_pt.remap_pfn el2 ~cpu:0 ~pfn:701 in
  Alcotest.(check bool) "distinct VAs" true (va1 <> va2);
  Alcotest.(check bool) "above the linear map" true
    (Page_table.va_page va1 >= cfg.Kcore.n_pages);
  (match El2_pt.translate el2 ~va:va1 with
  | Some (p, perms) ->
      Alcotest.(check int) "maps the pfn" 700 p;
      Alcotest.(check bool) "read-only" false perms.Pte.writable
  | None -> Alcotest.fail "remap missing");
  (* overwriting a live mapping is refused *)
  (match
     El2_pt.set_el2_pt el2 ~cpu:0 ~va:va1 ~pfn:999 ~perms:Pte.rw
   with
  | Error `Already_mapped -> ()
  | Ok () -> Alcotest.fail "write-once violated");
  (* the trace checker agrees *)
  Alcotest.(check bool) "checker holds" true
    (Vrm.Check_write_once.check kcore.Kcore.trace).Vrm.Check_write_once.holds

let show_event = function
  | Trace.E_pt_write { cpu; table; write; locked } ->
      Printf.sprintf "write %d %s %s %b" cpu (Trace.show_table_id table)
        (Page_table.show_pt_write write) locked
  | Trace.E_dsb cpu -> Printf.sprintf "dsb %d" cpu
  | Trace.E_tlbi { cpu; scope } ->
      Printf.sprintf "tlbi %d %s" cpu (Trace.show_tlbi_scope scope)
  | Trace.E_lock_acquire { cpu; lock } -> Printf.sprintf "acquire %d %s" cpu lock
  | Trace.E_lock_release { cpu; lock } -> Printf.sprintf "release %d %s" cpu lock
  | Trace.E_mem_read { cpu; pfn; owner } ->
      Printf.sprintf "read %d %d %s" cpu pfn (S2page.show_owner owner)
  | Trace.E_oracle_read { cpu; pfn } -> Printf.sprintf "oracle %d %d" cpu pfn
  | Trace.E_section_begin { cpu; what } -> Printf.sprintf "begin %d %s" cpu what
  | Trace.E_section_end { cpu; what } -> Printf.sprintf "end %d %s" cpu what

let md5_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* What a boot leaves behind, pinned: its trace, every frame's words and
   ownership record, and the order each pool will hand out its frames
   (drained last, since draining allocates). A faster boot must build
   the same system. *)
let test_boot_pinned () =
  let kcore = Kcore.boot cfg in
  let events = Trace.events kcore.Kcore.trace in
  Alcotest.(check int) "trace events" 1028 (List.length events);
  Alcotest.(check string) "trace digest" "a37939a40b22cf0242da655df8c932c4"
    (md5_lines (List.map show_event events));
  let frames f = List.concat (List.init cfg.Kcore.n_pages f) in
  Alcotest.(check string) "memory digest" "7715a70b2355fae67113987f1b6b42cf"
    (md5_lines
       (frames (fun pfn ->
            List.filter_map
              (fun idx ->
                match Phys_mem.read kcore.Kcore.mem ~pfn ~idx with
                | 0 -> None
                | w -> Some (Printf.sprintf "%d %d %d" pfn idx w))
              (List.init Phys_mem.entries_per_page Fun.id))));
  let db = kcore.Kcore.s2page in
  Alcotest.(check string) "ownership digest" "b747358b288837d35c23ace3c014d1c5"
    (md5_lines
       (frames (fun pfn ->
            [ Printf.sprintf "%s %b %d"
                (S2page.show_owner (S2page.owner db pfn))
                (S2page.is_shared db pfn) (S2page.map_count db pfn) ])));
  let drain pool =
    let rec go acc =
      match Page_pool.alloc pool with
      | pfn -> go (pfn :: acc)
      | exception Page_pool.Pool_exhausted _ -> List.rev acc
    in
    go []
  in
  let range a b = List.init (b - a + 1) (( + ) a) in
  Alcotest.(check (list int)) "el2 pool" (range 21 39) (drain kcore.Kcore.el2_pool);
  Alcotest.(check (list int)) "s2 pool" (range 41 231) (drain kcore.Kcore.s2_pool);
  Alcotest.(check (list int)) "smmu pool" (range 232 279)
    (drain kcore.Kcore.smmu_pool)

let test_gen_vmid () =
  let kcore, _ = fresh () in
  let a = Kcore.gen_vmid kcore ~cpu:0 in
  let b = Kcore.gen_vmid kcore ~cpu:1 in
  Alcotest.(check bool) "unique" true (a <> b);
  Alcotest.(check int) "sequential" (a + 1) b;
  (* exhausting the space panics, per Fig. 1 *)
  let small = Kcore.boot { cfg with Kcore.max_vms = 2 } in
  let _ = Kcore.gen_vmid small ~cpu:0 in
  Alcotest.(check bool) "MAX_VM panic" true
    (try
       ignore (Kcore.gen_vmid small ~cpu:0);
       false
     with Kcore.Kcore_panic _ -> true)

let test_register_vcpu_errors () =
  let kcore, _ = fresh () in
  let vmid = Kcore.register_vm kcore ~cpu:0 in
  Kcore.register_vcpu kcore ~cpu:0 ~vmid ~vcpuid:0;
  Alcotest.(check bool) "duplicate vcpu panics" true
    (try
       Kcore.register_vcpu kcore ~cpu:0 ~vmid ~vcpuid:0;
       false
     with Kcore.Kcore_panic _ -> true);
  Alcotest.(check bool) "unknown vm panics" true
    (try
       Kcore.register_vcpu kcore ~cpu:0 ~vmid:99 ~vcpuid:0;
       false
     with Kcore.Kcore_panic _ -> true)

let test_image_authentication () =
  let kcore, kserv = fresh () in
  (match Kserv.boot_vm kserv ~cpu:0 ~tamper:true ~n_vcpus:1 ~image_pages:2 with
  | Error `Bad_hash -> ()
  | Error `Denied -> Alcotest.fail "expected Bad_hash"
  | Ok _ -> Alcotest.fail "tampered image accepted");
  (match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:2 with
  | Ok vmid ->
      let vm = Kcore.find_vm kcore vmid in
      Alcotest.(check bool) "verified" true (vm.Kcore.vstate = Kcore.Verified);
      Alcotest.(check bool) "hash recorded" true (vm.Kcore.image_hash <> None);
      (* image pages now belong to the VM and are mapped at IPA 0.. *)
      let owned = S2page.pages_owned_by kcore.Kcore.s2page (S2page.Vm vmid) in
      Alcotest.(check int) "two image pages" 2 (List.length owned);
      (match Npt.translate vm.Kcore.npt ~ipa:0 with
      | Some _ -> ()
      | None -> Alcotest.fail "image not mapped");
      (* guest sees the exact image content *)
      (match Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0 [ Vm.G_read 0 ] with
      | [ Vm.R_value v ] ->
          Alcotest.(check int) "image word" (Vm.image_words ~vmid ~page:0 0) v
      | _ -> Alcotest.fail "guest read failed")
  | Error _ -> Alcotest.fail "honest boot failed");
  check_invariants kcore "after boots"

let test_fault_path_transfers_ownership () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let faults0 = kcore.Kcore.s2_faults in
  let ipa = Page_table.page_va 50 in
  (match Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0 [ Vm.G_write (ipa, 7); Vm.G_read ipa ] with
  | [ Vm.R_unit; Vm.R_value 7 ] -> ()
  | _ -> Alcotest.fail "fault path failed");
  Alcotest.(check int) "one fault handled" (faults0 + 1) kcore.Kcore.s2_faults;
  (* the backing page is VM-owned now *)
  let vm = Kcore.find_vm kcore vmid in
  (match Npt.translate vm.Kcore.npt ~ipa with
  | Some (pfn, _) ->
      Alcotest.(check bool) "owned by vm" true
        (S2page.owner kcore.Kcore.s2page pfn = S2page.Vm vmid);
      Alcotest.(check int) "map_count 1" 1
        (S2page.map_count kcore.Kcore.s2page pfn)
  | None -> Alcotest.fail "not mapped");
  check_invariants kcore "after faults"

let test_map_page_to_vm_validation () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  (* donating a KCore page is denied *)
  (match Kcore.map_page_to_vm kcore ~cpu:0 ~vmid ~ipa:(Page_table.page_va 60) ~pfn:2 with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "kcore page donated!");
  (* donating a page owned by another VM is denied *)
  let vm_pfn = List.hd (S2page.pages_owned_by kcore.Kcore.s2page (S2page.Vm vmid)) in
  (match Kcore.map_page_to_vm kcore ~cpu:0 ~vmid ~ipa:(Page_table.page_va 61) ~pfn:vm_pfn with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "vm page re-donated!");
  (* a legitimate donation is scrubbed on transfer *)
  let pfn = Kserv.alloc_page kserv in
  (match Kserv.host_write kserv ~cpu:0 ~pfn ~idx:3 1234 with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "kserv write");
  (match Kcore.map_page_to_vm kcore ~cpu:0 ~vmid ~ipa:(Page_table.page_va 62) ~pfn with
  | Ok () ->
      Alcotest.(check int) "scrubbed" 0 (Phys_mem.read kcore.Kcore.mem ~pfn ~idx:3)
  | Error `Denied -> Alcotest.fail "legit donation denied");
  check_invariants kcore "after donations"

let test_sharing_flow () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let ipa = Page_table.page_va 30 in
  (* populate, then share *)
  (match Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
           [ Vm.G_write (ipa, 55); Vm.G_share ipa ] with
  | [ Vm.R_unit; Vm.R_unit ] -> ()
  | _ -> Alcotest.fail "share failed");
  let vm = Kcore.find_vm kcore vmid in
  let pfn = match Npt.translate vm.Kcore.npt ~ipa with
    | Some (p, _) -> p
    | None -> Alcotest.fail "unmapped"
  in
  Alcotest.(check bool) "marked shared" true (S2page.is_shared kcore.Kcore.s2page pfn);
  (* KServ can now read it through its stage 2 *)
  (match Kserv.host_read kserv ~cpu:0 ~pfn ~idx:0 with
  | Ok v -> Alcotest.(check int) "kserv sees the ring" 55 v
  | Error `Denied -> Alcotest.fail "shared page unreadable");
  check_invariants kcore "while shared";
  (* unshare revokes KServ's view *)
  (match Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0 [ Vm.G_unshare ipa ] with
  | [ Vm.R_unit ] -> ()
  | _ -> Alcotest.fail "unshare failed");
  Alcotest.(check bool) "not shared" false (S2page.is_shared kcore.Kcore.s2page pfn);
  (match Kserv.host_read kserv ~cpu:0 ~pfn ~idx:0 with
  | Error `Denied -> ()
  | Ok _ -> Alcotest.fail "unshared page still readable");
  check_invariants kcore "after unshare"

let test_vcpu_protocol () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:2 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  Kcore.vcpu_load kcore ~cpu:1 ~vmid ~vcpuid:0;
  (* claiming an ACTIVE vCPU from another CPU must fail *)
  Alcotest.(check bool) "double claim rejected" true
    (try
       Kcore.vcpu_load kcore ~cpu:2 ~vmid ~vcpuid:0;
       false
     with Vcpu_ctxt.Protocol_violation _ -> true);
  (* a different vCPU is fine *)
  Kcore.vcpu_load kcore ~cpu:2 ~vmid ~vcpuid:1;
  Kcore.vcpu_put kcore ~cpu:1;
  Kcore.vcpu_put kcore ~cpu:2;
  (* after put, the context can be claimed again *)
  Kcore.vcpu_load kcore ~cpu:3 ~vmid ~vcpuid:0;
  Kcore.vcpu_put kcore ~cpu:3;
  (* teardown is refused while a vCPU is active *)
  Kcore.vcpu_load kcore ~cpu:3 ~vmid ~vcpuid:0;
  Alcotest.(check bool) "teardown with active vcpu panics" true
    (try
       Kcore.teardown_vm kcore ~cpu:0 ~vmid;
       false
     with Kcore.Kcore_panic _ -> true);
  Kcore.vcpu_put kcore ~cpu:3

let test_teardown_scrubs_and_returns () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:2 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let owned = S2page.pages_owned_by kcore.Kcore.s2page (S2page.Vm vmid) in
  Alcotest.(check bool) "has pages" true (owned <> []);
  Kcore.teardown_vm kcore ~cpu:0 ~vmid;
  List.iter
    (fun pfn ->
      Alcotest.(check bool) "returned to kserv" true
        (S2page.owner kcore.Kcore.s2page pfn = S2page.Kserv);
      for i = 0 to 8 do
        Alcotest.(check int) "scrubbed" 0 (Phys_mem.read kcore.Kcore.mem ~pfn ~idx:i)
      done)
    owned;
  Alcotest.(check bool) "torn down" true
    ((Kcore.find_vm kcore vmid).Kcore.vstate = Kcore.Torn_down);
  check_invariants kcore "after teardown"

(* Teardown returns the VM's stage-2 tree to [s2_pool]; the VM record
   stays, and every later call naming the dead VM is denied without
   touching the freed tree. *)
let test_teardown_frees_stage2 () =
  let kcore, kserv = fresh () in
  (* KServ's own tables over its low memory are built once and kept *)
  (match Kserv.host_write kserv ~cpu:0 ~pfn:(Kcore.kserv_base cfg) ~idx:0 0 with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "host write");
  let free () = Page_pool.available kcore.Kcore.s2_pool in
  let before = free () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  ignore
    (Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
       [ Vm.G_write (Page_table.page_va 40, 1);
         Vm.G_write (Page_table.page_va 700, 2) ]);
  Alcotest.(check bool) "the VM's tree took pages" true (free () < before);
  Kcore.teardown_vm kcore ~cpu:0 ~vmid;
  Alcotest.(check int) "s2_pool free count as before the boot" before (free ());
  Alcotest.(check bool) "record kept, torn down" true
    ((Kcore.find_vm kcore vmid).Kcore.vstate = Kcore.Torn_down);
  let ipa = Page_table.page_va 40 in
  let denied what = function
    | Error `Denied -> ()
    | Ok () -> Alcotest.failf "%s on a torn-down VM allowed" what
  in
  denied "donation"
    (Kcore.map_page_to_vm kcore ~cpu:0 ~vmid ~ipa ~pfn:(Kserv.alloc_page kserv));
  denied "share" (Kcore.vm_share_page kcore ~cpu:0 ~vmid ~ipa);
  denied "unshare" (Kcore.vm_unshare_page kcore ~cpu:0 ~vmid ~ipa);
  denied "protect" (Kcore.vm_protect_page kcore ~cpu:0 ~vmid ~ipa);
  denied "sgi" (Kcore.vgic_send_sgi kcore ~cpu:0 ~vmid ~to_vcpu:0 ~irq:1);
  denied "attach" (Kcore.smmu_attach kcore ~cpu:0 ~device:1 ~owner:(S2page.Vm vmid));
  (match
     Kcore.set_vm_image kcore ~cpu:0 ~vmid ~pfns:[ Kserv.alloc_page kserv ]
       ~expected_hash:0
   with
  | Error `Denied -> ()
  | Ok () | Error `Bad_hash -> Alcotest.fail "image on a torn-down VM");
  Alcotest.(check int) "snapshot is empty" 0
    (List.length (Kcore.snapshot_vm kcore ~cpu:0 ~vmid));
  Alcotest.(check bool) "guest addresses translate nothing" true
    (Kcore.translate_hw kcore ~cpu:2 ~vmid ~addr:ipa = None);
  Kcore.teardown_vm kcore ~cpu:0 ~vmid;
  Alcotest.(check int) "a second teardown frees nothing" before (free ());
  (* the freed pages serve the next VM *)
  (match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "boot after teardown");
  check_invariants kcore "after reuse"

(* Teardown detaches the dead VM's devices: their table pages return to
   [smmu_pool], and the device can be attached again. *)
let test_teardown_detaches_devices () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let free () = Page_pool.available kcore.Kcore.smmu_pool in
  let before = free () in
  (match Kcore.smmu_attach kcore ~cpu:0 ~device:1 ~owner:(S2page.Vm vmid) with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "attach denied");
  let vm_pfn = List.hd (S2page.pages_owned_by kcore.Kcore.s2page (S2page.Vm vmid)) in
  (match Kcore.smmu_map kcore ~cpu:0 ~device:1 ~iova:0 ~pfn:vm_pfn with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "dma map denied");
  Kcore.teardown_vm kcore ~cpu:0 ~vmid;
  Alcotest.(check int) "smmu_pool free count as before the attach" before
    (free ());
  check_invariants kcore "after teardown";
  (match Kcore.smmu_attach kcore ~cpu:0 ~device:1 ~owner:S2page.Kserv with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "re-attach denied");
  check_invariants kcore "after re-attach"

let test_smmu_hypercalls () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  (match Kcore.smmu_attach kcore ~cpu:0 ~device:7 ~owner:(S2page.Vm vmid) with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "attach denied");
  (match Kcore.smmu_attach kcore ~cpu:0 ~device:7 ~owner:S2page.Kserv with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "double attach allowed");
  let vm_pfn = List.hd (S2page.pages_owned_by kcore.Kcore.s2page (S2page.Vm vmid)) in
  (match Kcore.smmu_map kcore ~cpu:0 ~device:7 ~iova:0 ~pfn:vm_pfn with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "legit dma map denied");
  (* DMA to a KCore page is denied *)
  (match Kcore.smmu_map kcore ~cpu:0 ~device:7 ~iova:4096 ~pfn:2 with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "dma into kcore allowed");
  check_invariants kcore "with dma mapping";
  (match Kcore.smmu_unmap kcore ~cpu:0 ~device:7 ~iova:0 with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "unmap denied");
  check_invariants kcore "after dma unmap"

let test_tlb_maintained_on_unmap () =
  (* after clear_s2pt the CPUs' TLBs hold no stale translation *)
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let ipa = Page_table.page_va 33 in
  (match Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
           [ Vm.G_write (ipa, 1); Vm.G_read ipa ] with
  | [ Vm.R_unit; Vm.R_value 1 ] -> ()
  | _ -> Alcotest.fail "populate failed");
  (* the read went through CPU 1's TLB; now unmap *)
  let vm = Kcore.find_vm kcore vmid in
  (match Npt.clear_s2pt vm.Kcore.npt ~cpu:0 ~ipa with
  | Ok () -> ()
  | Error `Not_mapped -> Alcotest.fail "unmap");
  Alcotest.(check (option int)) "TLB entry gone" None
    (Option.map fst
       (Tlb.lookup kcore.Kcore.cpus.(1).Cpu.tlb ~vmid ~vp:(Page_table.va_page ipa)))

(* ---- the invariant checker, pinned ----

   Each case boots a clean system, corrupts exactly one thing through a
   public API (a raw PTE store, an ownership-database edit, or the SMMU
   enable bit) and asserts the exact (invariant, detail) list the checker
   reports, so a faster checker must report the same violations, worded
   the same, in the same order. *)

let violations kcore =
  List.map (fun v -> (v.Kcore.inv, v.Kcore.detail)) (Kcore.check_invariants kcore)

let check_violations label expected kcore =
  Alcotest.(check (list (pair string string))) label expected (violations kcore)

(* A clean system with one booted VM; returns the VM's one image page,
   mapped at guest page 0. *)
let with_vm () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let image = List.hd (List.assoc vmid kserv.Kserv.booted) in
  check_violations "clean before corruption" [] kcore;
  (kcore, kserv, vmid, image)

let test_inv_table_pages () =
  (* a raw table PTE in the VM's root pointing at a (zeroed) KServ page:
     that page is now a table page KCore does not own *)
  let kcore, kserv, vmid, _ = with_vm () in
  let page = Kserv.alloc_page kserv in
  let root = (Kcore.find_vm kcore vmid).Kcore.npt.Npt.root in
  Phys_mem.write kcore.Kcore.mem ~pfn:root ~idx:511
    (Pte.encode (Pte.Table page));
  check_violations "one violation"
    [ ("table-pages-kcore-owned",
       Printf.sprintf "table page %d owned by S2page.Kserv" page) ]
    kcore

let test_inv_no_kcore_page_mapped () =
  let kcore, _, vmid, image = with_vm () in
  S2page.set_owner kcore.Kcore.s2page image S2page.Kcore;
  check_violations "one violation"
    [ ("no-kcore-page-mapped",
       Printf.sprintf "vm-%d-s2 maps vp 0 -> KCore page %d" vmid image) ]
    kcore

let test_inv_kserv_s2 () =
  (* a page in KServ's stage 2 that KServ no longer owns (and that is not
     shared) *)
  let kcore, kserv, vmid, _ = with_vm () in
  let page = Kserv.alloc_page kserv in
  (match Kserv.host_write kserv ~cpu:0 ~pfn:page ~idx:0 1 with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "host write");
  check_violations "clean after host fault" [] kcore;
  S2page.set_owner kcore.Kcore.s2page page (S2page.Vm vmid);
  check_violations "one violation"
    [ ("owner-consistent",
       Printf.sprintf "kserv-s2 maps vp %d -> page %d owned by (S2page.Vm %d)"
         page page vmid) ]
    kcore

let test_inv_vm_s2 () =
  let kcore, _, vmid, image = with_vm () in
  S2page.set_owner kcore.Kcore.s2page image S2page.Kserv;
  check_violations "one violation"
    [ ("owner-consistent",
       Printf.sprintf "vm-%d-s2 maps vp 0 -> page %d owned by S2page.Kserv"
         vmid image) ]
    kcore

(* A KServ device with one DMA mapping of a KServ page that is in no
   stage-2 table. *)
let with_dma () =
  let kcore, kserv, vmid, _ = with_vm () in
  let page = Kserv.alloc_page kserv in
  (match Kcore.smmu_attach kcore ~cpu:0 ~device:3 ~owner:S2page.Kserv with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "attach");
  (match Kcore.smmu_map kcore ~cpu:0 ~device:3 ~iova:0 ~pfn:page with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "dma map");
  check_violations "clean with dma" [] kcore;
  (kcore, vmid, page)

let test_inv_smmu_owner () =
  let kcore, vmid, page = with_dma () in
  S2page.set_owner kcore.Kcore.s2page page (S2page.Vm vmid);
  check_violations "one violation"
    [ ("smmu-owner-consistent",
       Printf.sprintf
         "device 3 (owner S2page.Kserv) can DMA to page %d owned by \
          (S2page.Vm %d)"
         page vmid) ]
    kcore

let test_inv_no_kcore_page_dma () =
  let kcore, _, page = with_dma () in
  S2page.set_owner kcore.Kcore.s2page page S2page.Kcore;
  check_violations "one violation"
    [ ("no-kcore-page-dma",
       Printf.sprintf "device 3 can DMA to KCore page %d" page) ]
    kcore

let test_inv_smmu_context_owned () =
  (* a device left attached with no owner: its table pages are checked,
     its leaves are not, so the DMA mapping's frame is miscounted too *)
  let kcore, _, page = with_dma () in
  kcore.Kcore.smmu_owners <- [];
  check_violations "two violations"
    [ ("smmu-context-owned", "device 3 is attached with no owner");
      ("map-count-consistent",
       Printf.sprintf "page %d: map_count 1 but 0 actual mappings" page) ]
    kcore

let test_inv_smmu_enabled () =
  let kcore, _, _, _ = with_vm () in
  kcore.Kcore.smmu_ops.Smmu_ops.smmu.Smmu.enabled <- false;
  check_violations "one violation"
    [ ("smmu-enabled", "SMMU has been disabled") ]
    kcore

let test_inv_map_count () =
  let kcore, _, _, image = with_vm () in
  S2page.decr_map kcore.Kcore.s2page image;
  check_violations "one violation"
    [ ("map-count-consistent",
       Printf.sprintf "page %d: map_count 0 but 1 actual mappings" image) ]
    kcore

(* The tally is sparse: it stacks the frames the walk reaches and checks
   their counts and the database's total. A count on a frame no table
   maps disagrees only with the total. *)
let test_inv_map_count_unmapped () =
  let kcore, kserv, _, _ = with_vm () in
  let page = Kserv.alloc_page kserv in
  S2page.incr_map kcore.Kcore.s2page page;
  check_violations "one violation"
    [ ("map-count-consistent",
       Printf.sprintf "page %d: map_count 1 but 0 actual mappings" page) ]
    kcore

(* One count moved from a mapped frame to an unmapped one: the total
   still agrees, and both frames are reported by ascending frame. *)
let test_inv_map_count_moved () =
  let kcore, kserv, _, image = with_vm () in
  let page = Kserv.alloc_page kserv in
  S2page.decr_map kcore.Kcore.s2page image;
  S2page.incr_map kcore.Kcore.s2page page;
  let report pfn =
    if pfn = image then
      Printf.sprintf "page %d: map_count 0 but 1 actual mappings" pfn
    else Printf.sprintf "page %d: map_count 1 but 0 actual mappings" pfn
  in
  check_violations "two violations"
    [ ("map-count-consistent", report (min image page));
      ("map-count-consistent", report (max image page)) ]
    kcore

(* A leaf past the last frame makes the call raise after it has tallied
   other frames; once the leaf is cleared, the next call starts clean. *)
let test_inv_raise_then_clean () =
  let kcore, _, vmid, _ = with_vm () in
  let npt = (Kcore.find_vm kcore vmid).Kcore.npt in
  let leaf =
    match
      Page_table.plan_unmap kcore.Kcore.mem npt.Npt.geometry
        ~root:npt.Npt.root ~va:0
    with
    | Some w -> w
    | None -> Alcotest.fail "guest page 0 unmapped"
  in
  let n = Phys_mem.n_pages kcore.Kcore.mem in
  let pfn = leaf.Page_table.w_pfn and idx = leaf.Page_table.w_idx + 1 in
  Phys_mem.write kcore.Kcore.mem ~pfn ~idx (Pte.encode (Pte.Page (n, Pte.rw)));
  Alcotest.check_raises "past the last frame"
    (Invalid_argument (Printf.sprintf "S2page: pfn %d out of range" n))
    (fun () -> ignore (Kcore.check_invariants kcore));
  Phys_mem.write kcore.Kcore.mem ~pfn ~idx 0;
  check_violations "clean after the leaf is cleared" [] kcore

let test_inv_report_order () =
  (* several corruptions at once: invariants report in checker order (1,
     2-4 per table, 5, 6, 7), VMs and devices in the kernel's list order
     (newest first), map counts by ascending frame *)
  let kcore, kserv, vm1, image1 = with_vm () in
  let vm2 =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot 2"
  in
  let image2 = List.hd (List.assoc vm2 kserv.Kserv.booted) in
  let host = Kserv.alloc_page kserv in
  (match Kserv.host_write kserv ~cpu:0 ~pfn:host ~idx:0 1 with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "host write");
  let dma = Kserv.alloc_page kserv in
  List.iter
    (fun (device, owner) ->
      match Kcore.smmu_attach kcore ~cpu:0 ~device ~owner with
      | Ok () -> ()
      | Error `Denied -> Alcotest.fail "attach")
    [ (1, S2page.Vm vm1); (2, S2page.Kserv) ];
  (match Kcore.smmu_map kcore ~cpu:0 ~device:1 ~iova:0 ~pfn:image1 with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "dma map 1");
  (match Kcore.smmu_map kcore ~cpu:0 ~device:2 ~iova:0 ~pfn:dma with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "dma map 2");
  check_violations "clean before corruption" [] kcore;
  let root2 = (Kcore.find_vm kcore vm2).Kcore.npt.Npt.root in
  let stray = Kserv.alloc_page kserv in
  Phys_mem.write kcore.Kcore.mem ~pfn:root2 ~idx:511
    (Pte.encode (Pte.Table stray));
  S2page.set_owner kcore.Kcore.s2page image1 S2page.Kserv;
  S2page.set_owner kcore.Kcore.s2page image2 S2page.Kcore;
  S2page.set_owner kcore.Kcore.s2page host S2page.Kcore;
  S2page.set_owner kcore.Kcore.s2page dma (S2page.Vm vm2);
  kcore.Kcore.smmu_ops.Smmu_ops.smmu.Smmu.enabled <- false;
  S2page.decr_map kcore.Kcore.s2page image2;
  S2page.incr_map kcore.Kcore.s2page image1;
  let lo, hi = (min image1 image2, max image1 image2) in
  let count pfn =
    if pfn = image1 then
      Printf.sprintf "page %d: map_count 3 but 2 actual mappings" pfn
    else Printf.sprintf "page %d: map_count 0 but 1 actual mappings" pfn
  in
  check_violations "all violations, in order"
    [ ("table-pages-kcore-owned",
       Printf.sprintf "table page %d owned by S2page.Kserv" stray);
      ("no-kcore-page-mapped",
       Printf.sprintf "kserv-s2 maps vp %d -> KCore page %d" host host);
      ("no-kcore-page-mapped",
       Printf.sprintf "vm-%d-s2 maps vp 0 -> KCore page %d" vm2 image2);
      ("owner-consistent",
       Printf.sprintf "vm-%d-s2 maps vp 0 -> page %d owned by S2page.Kserv"
         vm1 image1);
      ("smmu-owner-consistent",
       Printf.sprintf
         "device 2 (owner S2page.Kserv) can DMA to page %d owned by \
          (S2page.Vm %d)"
         dma vm2);
      ("smmu-owner-consistent",
       Printf.sprintf
         "device 1 (owner (S2page.Vm %d)) can DMA to page %d owned by \
          S2page.Kserv"
         vm1 image1);
      ("smmu-enabled", "SMMU has been disabled");
      ("map-count-consistent", count lo);
      ("map-count-consistent", count hi) ]
    kcore

let test_inv_report_across_trees () =
  (* corruptions in every kind of tree at once, two of them stray table
     pages (one in a VM's tree, holding a leaf of its own, one in an SMMU
     tree): all of invariant 1 comes first, tree by tree (KServ, VMs
     newest first, then devices), then invariants 2-4 table by table in
     address order, 5 device by device, 7 by ascending frame *)
  let kcore, kserv, vm1, image1 = with_vm () in
  let vm2 =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot 2"
  in
  let image2 = List.hd (List.assoc vm2 kserv.Kserv.booted) in
  let host = Kserv.alloc_page kserv in
  (match Kserv.host_write kserv ~cpu:0 ~pfn:host ~idx:0 1 with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "host write");
  let dma = Kserv.alloc_page kserv in
  (match Kcore.smmu_attach kcore ~cpu:0 ~device:2 ~owner:S2page.Kserv with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "attach");
  (match Kcore.smmu_map kcore ~cpu:0 ~device:2 ~iova:0 ~pfn:dma with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "dma map");
  check_violations "clean before corruption" [] kcore;
  let mem = kcore.Kcore.mem in
  let table pfn = Pte.encode (Pte.Table pfn) in
  (* vm1: root -> stray1 -> stray2 -> KCore page 2, at the top of its
     address space *)
  let stray1 = Kserv.alloc_page kserv and stray2 = Kserv.alloc_page kserv in
  let root1 = (Kcore.find_vm kcore vm1).Kcore.npt.Npt.root in
  Phys_mem.write mem ~pfn:root1 ~idx:511 (table stray1);
  Phys_mem.write mem ~pfn:stray1 ~idx:0 (table stray2);
  Phys_mem.write mem ~pfn:stray2 ~idx:0 (Pte.encode (Pte.Page (2, Pte.ro)));
  let stray_vp = 511 lsl (2 * Page_table.bits_per_level) in
  (* device 2: a stray table page in its SMMU tree *)
  let stray3 = Kserv.alloc_page kserv in
  let droot =
    Option.get (Smmu.root_of kcore.Kcore.smmu_ops.Smmu_ops.smmu ~device:2)
  in
  Phys_mem.write mem ~pfn:droot ~idx:511 (table stray3);
  S2page.set_owner kcore.Kcore.s2page host (S2page.Vm vm2);
  S2page.set_owner kcore.Kcore.s2page image1 S2page.Kcore;
  S2page.set_owner kcore.Kcore.s2page image2 S2page.Kserv;
  S2page.set_owner kcore.Kcore.s2page dma S2page.Kcore;
  S2page.decr_map kcore.Kcore.s2page image2;
  let owned_by_kserv pfn =
    ("table-pages-kcore-owned",
     Printf.sprintf "table page %d owned by S2page.Kserv" pfn)
  in
  let miscount pfn =
    ("map-count-consistent",
     Printf.sprintf "page %d: map_count 0 but 1 actual mappings" pfn)
  in
  check_violations "all violations, in order"
    [ owned_by_kserv stray1;
      owned_by_kserv stray2;
      owned_by_kserv stray3;
      ("owner-consistent",
       Printf.sprintf "kserv-s2 maps vp %d -> page %d owned by (S2page.Vm %d)"
         host host vm2);
      ("owner-consistent",
       Printf.sprintf "vm-%d-s2 maps vp 0 -> page %d owned by S2page.Kserv"
         vm2 image2);
      ("no-kcore-page-mapped",
       Printf.sprintf "vm-%d-s2 maps vp 0 -> KCore page %d" vm1 image1);
      ("no-kcore-page-mapped",
       Printf.sprintf "vm-%d-s2 maps vp %d -> KCore page 2" vm1 stray_vp);
      ("no-kcore-page-dma",
       Printf.sprintf "device 2 can DMA to KCore page %d" dma);
      miscount 2;
      miscount image2 ]
    kcore

let () =
  Alcotest.run "kcore"
    [ ( "boot",
        [ Alcotest.test_case "layout" `Quick test_boot_layout;
          Alcotest.test_case "el2 write-once" `Quick test_el2_write_once;
          Alcotest.test_case "boot pinned" `Quick test_boot_pinned;
          Alcotest.test_case "gen_vmid" `Quick test_gen_vmid;
          Alcotest.test_case "register errors" `Quick
            test_register_vcpu_errors ] );
      ( "lifecycle",
        [ Alcotest.test_case "image authentication" `Quick
            test_image_authentication;
          Alcotest.test_case "fault path" `Quick
            test_fault_path_transfers_ownership;
          Alcotest.test_case "donation validation" `Quick
            test_map_page_to_vm_validation;
          Alcotest.test_case "sharing flow" `Quick test_sharing_flow;
          Alcotest.test_case "vcpu protocol" `Quick test_vcpu_protocol;
          Alcotest.test_case "teardown scrubs" `Quick
            test_teardown_scrubs_and_returns;
          Alcotest.test_case "teardown frees stage-2 tables" `Quick
            test_teardown_frees_stage2 ] );
      ( "devices",
        [ Alcotest.test_case "smmu hypercalls" `Quick test_smmu_hypercalls;
          Alcotest.test_case "teardown detaches devices" `Quick
            test_teardown_detaches_devices;
          Alcotest.test_case "tlb maintained" `Quick
            test_tlb_maintained_on_unmap ] );
      ( "invariants",
        [ Alcotest.test_case "table pages kcore-owned" `Quick
            test_inv_table_pages;
          Alcotest.test_case "no kcore page mapped" `Quick
            test_inv_no_kcore_page_mapped;
          Alcotest.test_case "kserv stage 2 owner" `Quick test_inv_kserv_s2;
          Alcotest.test_case "vm stage 2 owner" `Quick test_inv_vm_s2;
          Alcotest.test_case "smmu owner" `Quick test_inv_smmu_owner;
          Alcotest.test_case "no kcore page dma" `Quick
            test_inv_no_kcore_page_dma;
          Alcotest.test_case "smmu context owned" `Quick
            test_inv_smmu_context_owned;
          Alcotest.test_case "smmu enabled" `Quick test_inv_smmu_enabled;
          Alcotest.test_case "map counts" `Quick test_inv_map_count;
          Alcotest.test_case "map count on an unmapped frame" `Quick
            test_inv_map_count_unmapped;
          Alcotest.test_case "map count moved, total unchanged" `Quick
            test_inv_map_count_moved;
          Alcotest.test_case "clean after a call that raised" `Quick
            test_inv_raise_then_clean;
          Alcotest.test_case "report order" `Quick test_inv_report_order;
          Alcotest.test_case "report order across trees" `Quick
            test_inv_report_across_trees ] ) ]
