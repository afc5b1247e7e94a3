(* Tests for the TLB, the SMMU, and the Example 6 invalidation-ordering
   simulation. *)

open Machine

let test_tlb_basic () =
  let tlb = Tlb.create ~capacity:4 in
  Alcotest.(check (option (pair int bool))) "miss" None
    (Option.map (fun (p, perms) -> (p, perms.Pte.writable))
       (Tlb.lookup tlb ~vmid:1 ~vp:5));
  Tlb.fill tlb ~vmid:1 ~vp:5 ~pfn:50 ~perms:Pte.rw;
  Alcotest.(check (option int)) "hit" (Some 50)
    (Option.map fst (Tlb.lookup tlb ~vmid:1 ~vp:5));
  Alcotest.(check (option int)) "vmid-tagged" None
    (Option.map fst (Tlb.lookup tlb ~vmid:2 ~vp:5));
  Alcotest.(check int) "stats" 2 tlb.Tlb.misses;
  Alcotest.(check int) "stats hits" 1 tlb.Tlb.hits

let test_tlb_eviction () =
  let tlb = Tlb.create ~capacity:2 in
  Tlb.fill tlb ~vmid:0 ~vp:1 ~pfn:10 ~perms:Pte.rw;
  Tlb.fill tlb ~vmid:0 ~vp:2 ~pfn:20 ~perms:Pte.rw;
  Tlb.fill tlb ~vmid:0 ~vp:3 ~pfn:30 ~perms:Pte.rw;
  Alcotest.(check int) "capacity respected" 2 (Tlb.size tlb);
  Alcotest.(check (option int)) "oldest evicted" None
    (Option.map fst (Tlb.lookup tlb ~vmid:0 ~vp:1));
  Alcotest.(check (option int)) "newest kept" (Some 30)
    (Option.map fst (Tlb.lookup tlb ~vmid:0 ~vp:3))

let test_tlb_refill_same_vp () =
  let tlb = Tlb.create ~capacity:4 in
  Tlb.fill tlb ~vmid:0 ~vp:1 ~pfn:10 ~perms:Pte.rw;
  Tlb.fill tlb ~vmid:0 ~vp:1 ~pfn:11 ~perms:Pte.ro;
  Alcotest.(check int) "no duplicate entry" 1 (Tlb.size tlb);
  Alcotest.(check (option int)) "updated" (Some 11)
    (Option.map fst (Tlb.lookup tlb ~vmid:0 ~vp:1))

let test_tlb_invalidation () =
  let tlb = Tlb.create ~capacity:8 in
  Tlb.fill tlb ~vmid:1 ~vp:1 ~pfn:10 ~perms:Pte.rw;
  Tlb.fill tlb ~vmid:1 ~vp:2 ~pfn:20 ~perms:Pte.rw;
  Tlb.fill tlb ~vmid:2 ~vp:1 ~pfn:30 ~perms:Pte.rw;
  Tlb.invalidate_va tlb ~vmid:1 ~vp:1;
  Alcotest.(check (option int)) "va invalidated" None
    (Option.map fst (Tlb.lookup tlb ~vmid:1 ~vp:1));
  Alcotest.(check (option int)) "other vmid untouched" (Some 30)
    (Option.map fst (Tlb.lookup tlb ~vmid:2 ~vp:1));
  Tlb.invalidate_vmid tlb ~vmid:1;
  Alcotest.(check (option int)) "vmid flushed" None
    (Option.map fst (Tlb.lookup tlb ~vmid:1 ~vp:2));
  Tlb.invalidate_all tlb;
  Alcotest.(check int) "all flushed" 0 (Tlb.size tlb)

let test_tlb_consistency_check () =
  let tlb = Tlb.create ~capacity:8 in
  Tlb.fill tlb ~vmid:0 ~vp:1 ~pfn:10 ~perms:Pte.rw;
  Tlb.fill tlb ~vmid:0 ~vp:2 ~pfn:20 ~perms:Pte.rw;
  let walk ~vmid:_ ~vp = if vp = 1 then Some (10, Pte.rw) else None in
  let stale = Tlb.inconsistent_entries tlb ~walk in
  Alcotest.(check int) "one stale entry" 1 (List.length stale);
  Alcotest.(check int) "it is vp 2" 2 (List.hd stale).Tlb.e_vp

let test_smmu () =
  let mem = Phys_mem.create 64 in
  let pool = Page_pool.create ~name:"smmu" ~mem ~first_pfn:1 ~n_pages:32 in
  let smmu = Smmu.create ~mem ~geometry:Page_table.three_level ~pool ~tlb_capacity:8 in
  Alcotest.(check (option int)) "unattached device: no DMA" None
    (Option.map fst (Smmu.translate smmu ~device:3 ~iova:0));
  let root = Smmu.attach_device smmu ~device:3 in
  Alcotest.(check bool) "attached" true (Smmu.is_attached smmu ~device:3);
  Alcotest.check_raises "double attach"
    (Invalid_argument "Smmu.attach_device: already attached") (fun () ->
      ignore (Smmu.attach_device smmu ~device:3));
  (match
     Page_table.plan_map mem Page_table.three_level ~pool ~root
       ~va:(Page_table.page_va 9) ~target_pfn:40 ~perms:Pte.rw
   with
  | Ok ws -> Page_table.apply_writes mem ws
  | Error `Already_mapped -> Alcotest.fail "map");
  Alcotest.(check (option int)) "translate" (Some 40)
    (Option.map fst (Smmu.translate smmu ~device:3 ~iova:(Page_table.page_va 9)));
  (* second translate hits the SMMU TLB *)
  let hits_before = smmu.Smmu.tlb.Tlb.hits in
  ignore (Smmu.translate smmu ~device:3 ~iova:(Page_table.page_va 9));
  Alcotest.(check int) "TLB hit" (hits_before + 1) smmu.Smmu.tlb.Tlb.hits;
  Alcotest.(check (list int)) "reachable" [ 40 ]
    (Smmu.reachable_pfns smmu ~device:3);
  Smmu.invalidate_tlb_va smmu ~device:3 ~iova:(Page_table.page_va 9);
  Alcotest.(check int) "invalidated" 0 (Tlb.size smmu.Smmu.tlb)

let test_smmu_disabled_is_bypass () =
  (* the dangerous configuration KCore's invariants forbid *)
  let mem = Phys_mem.create 16 in
  let pool = Page_pool.create ~name:"s" ~mem ~first_pfn:1 ~n_pages:4 in
  let smmu = Smmu.create ~mem ~geometry:Page_table.three_level ~pool ~tlb_capacity:4 in
  smmu.Smmu.enabled <- false;
  Alcotest.(check (option int)) "raw physical DMA" (Some 7)
    (Option.map fst (Smmu.translate smmu ~device:9 ~iova:(Page_table.page_va 7)))

(* Example 6: invalidation-ordering race *)

let test_hardware_orders () =
  let orders = Tlb_sim.hardware_orders Tlb_sim.unmap_no_barrier in
  Alcotest.(check int) "two orders without barrier" 2 (List.length orders);
  let orders_b = Tlb_sim.hardware_orders Tlb_sim.unmap_with_barrier in
  Alcotest.(check int) "one order with barrier" 1 (List.length orders_b)

let test_example6 () =
  Alcotest.(check bool) "stale TLB without barrier" true
    (Tlb_sim.stale_tlb_possible Tlb_sim.unmap_no_barrier);
  Alcotest.(check bool) "no stale TLB with barrier" false
    (Tlb_sim.stale_tlb_possible Tlb_sim.unmap_with_barrier)

let test_example6_missing_tlbi_entirely () =
  (* forgetting the TLBI altogether is also unsafe, barrier or not *)
  Alcotest.(check bool) "no TLBI at all: stale" true
    (Tlb_sim.stale_tlb_possible [ Tlb_sim.K_unmap; Tlb_sim.K_barrier ])

let qcheck_tlb_never_stale_after_inval =
  QCheck.Test.make ~name:"lookup after invalidate_va always misses"
    ~count:200
    QCheck.(pair (int_bound 10) (int_bound 10))
    (fun (vmid, vp) ->
      let tlb = Tlb.create ~capacity:8 in
      Tlb.fill tlb ~vmid ~vp ~pfn:1 ~perms:Pte.rw;
      Tlb.invalidate_va tlb ~vmid ~vp;
      Tlb.lookup tlb ~vmid ~vp = None)

let () =
  Alcotest.run "tlb"
    [ ( "tlb",
        [ Alcotest.test_case "basic" `Quick test_tlb_basic;
          Alcotest.test_case "eviction" `Quick test_tlb_eviction;
          Alcotest.test_case "refill same vp" `Quick test_tlb_refill_same_vp;
          Alcotest.test_case "invalidation" `Quick test_tlb_invalidation;
          Alcotest.test_case "consistency check" `Quick
            test_tlb_consistency_check;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_tlb_never_stale_after_inval ] );
      ( "smmu",
        [ Alcotest.test_case "attach/translate" `Quick test_smmu;
          Alcotest.test_case "disabled bypass" `Quick
            test_smmu_disabled_is_bypass ] );
      ( "example6",
        [ Alcotest.test_case "hardware orders" `Quick test_hardware_orders;
          Alcotest.test_case "stale iff no barrier" `Quick test_example6;
          Alcotest.test_case "missing TLBI" `Quick
            test_example6_missing_tlbi_entirely ] ) ]
