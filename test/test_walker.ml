(* Tests for the racy hardware page-table walker and the semantic
   Transactional-Page-Table judgment (paper Examples 4 and 5). *)

open Machine

let g = Page_table.three_level

let fresh () =
  let mem = Phys_mem.create 64 in
  let pool = Page_pool.create ~name:"w" ~mem ~first_pfn:1 ~n_pages:40 in
  let root = Page_pool.alloc pool in
  (mem, pool, root)

let map mem pool root vp pfn =
  match
    Page_table.plan_map mem g ~pool ~root ~va:(Page_table.page_va vp)
      ~target_pfn:pfn ~perms:Pte.rw
  with
  | Ok ws ->
      Page_table.apply_writes mem ws;
      ws
  | Error `Already_mapped -> Alcotest.fail "map failed"

let plan_map mem pool root vp pfn =
  match
    Page_table.plan_map mem g ~pool ~root ~va:(Page_table.page_va vp)
      ~target_pfn:pfn ~perms:Pte.rw
  with
  | Ok ws -> ws
  | Error `Already_mapped -> Alcotest.fail "plan failed"

let test_no_pending_equals_walk () =
  let mem, pool, root = fresh () in
  ignore (map mem pool root 5 20);
  let obs = Mmu_walker.walk_relaxed mem g ~root ~pending:[] (Page_table.page_va 5) in
  Alcotest.(check int) "deterministic" 1 (List.length obs);
  Alcotest.(check bool) "equals the atomic walk" true
    (List.hd obs = Page_table.walk mem g ~root (Page_table.page_va 5))

let test_fresh_map_is_transactional () =
  (* a deep set_s2pt (allocating intermediate tables): any partial view
     faults, so the batch is transactional *)
  let mem, pool, root = fresh () in
  let writes = plan_map mem pool root 9 30 in
  Alcotest.(check bool) "multiple writes" true (List.length writes > 1);
  let obs =
    Mmu_walker.walk_relaxed mem g ~root ~pending:writes (Page_table.page_va 9)
  in
  Alcotest.(check bool) "mapped state observable" true
    (List.mem (Page_table.Mapped (30, Pte.rw)) obs);
  Alcotest.(check bool) "everything else faults" true
    (List.for_all
       (fun o -> o = Page_table.Mapped (30, Pte.rw) || Mmu_walker.is_fault o)
       obs);
  let bad =
    Mmu_walker.transactional_violations mem g ~root ~writes
      ~vas:[ Page_table.page_va 9 ]
  in
  Alcotest.(check int) "no violations" 0 (List.length bad)

let test_single_write_unmap_transactional () =
  let mem, pool, root = fresh () in
  ignore (map mem pool root 5 20);
  match Page_table.plan_unmap mem g ~root ~va:(Page_table.page_va 5) with
  | None -> Alcotest.fail "expected a plan"
  | Some w ->
      let bad =
        Mmu_walker.transactional_violations mem g ~root ~writes:[ w ]
          ~vas:[ Page_table.page_va 5 ]
      in
      Alcotest.(check int) "unmap transactional" 0 (List.length bad)

let test_example5_not_transactional () =
  (* map vp 5; then in one batch: clear its level-1 entry AND install a
     new leaf for vp 6 in the still-reachable leaf table *)
  let mem, pool, root = fresh () in
  ignore (map mem pool root 5 20);
  let l2_idx = Page_table.index g ~level:2 (Page_table.page_va 5) in
  let l1 =
    match Pte.decode (Phys_mem.read mem ~pfn:root ~idx:l2_idx) with
    | Pte.Table t -> t
    | _ -> Alcotest.fail "no l1"
  in
  let l1_idx = Page_table.index g ~level:1 (Page_table.page_va 5) in
  let leaf =
    match Pte.decode (Phys_mem.read mem ~pfn:l1 ~idx:l1_idx) with
    | Pte.Table t -> t
    | _ -> Alcotest.fail "no leaf table"
  in
  let writes =
    [ { Page_table.w_pfn = l1; w_idx = l1_idx;
        w_old = Phys_mem.read mem ~pfn:l1 ~idx:l1_idx;
        w_new = Pte.encode Pte.Invalid };
      { Page_table.w_pfn = leaf;
        w_idx = Page_table.index g ~level:0 (Page_table.page_va 6);
        w_old = 0;
        w_new = Pte.encode (Pte.Page (31, Pte.rw)) } ]
  in
  let bad =
    Mmu_walker.transactional_violations mem g ~root ~writes
      ~vas:[ Page_table.page_va 5; Page_table.page_va 6 ]
  in
  Alcotest.(check bool) "violation found" true (bad <> []);
  Alcotest.(check bool) "witness is the forbidden new mapping" true
    (List.exists
       (fun (_, obs) -> obs = Page_table.Mapped (31, Pte.rw))
       bad)

let test_example4_per_read_independence () =
  (* two leaf updates in flight: a walker can observe one new and one old
     (each read independent), which is exactly Example 4's reordering *)
  let mem, pool, root = fresh () in
  ignore (map mem pool root 0x80 0x10);
  ignore (map mem pool root 0x81 0x11);
  let w80 =
    match Page_table.plan_unmap mem g ~root ~va:(Page_table.page_va 0x80) with
    | Some w -> { w with Page_table.w_new = Pte.encode (Pte.Page (0x20, Pte.rw)) }
    | None -> Alcotest.fail "no plan"
  in
  let w81 =
    match Page_table.plan_unmap mem g ~root ~va:(Page_table.page_va 0x81) with
    | Some w -> { w with Page_table.w_new = Pte.encode (Pte.Page (0x21, Pte.rw)) }
    | None -> Alcotest.fail "no plan"
  in
  let pending = [ w80; w81 ] in
  let obs80 = Mmu_walker.walk_relaxed mem g ~root ~pending (Page_table.page_va 0x80) in
  let obs81 = Mmu_walker.walk_relaxed mem g ~root ~pending (Page_table.page_va 0x81) in
  (* each address can independently be seen old or new *)
  Alcotest.(check bool) "0x80 old visible" true
    (List.mem (Page_table.Mapped (0x10, Pte.rw)) obs80);
  Alcotest.(check bool) "0x80 new visible" true
    (List.mem (Page_table.Mapped (0x20, Pte.rw)) obs80);
  Alcotest.(check bool) "0x81 old visible" true
    (List.mem (Page_table.Mapped (0x11, Pte.rw)) obs81);
  Alcotest.(check bool) "0x81 new visible" true
    (List.mem (Page_table.Mapped (0x21, Pte.rw)) obs81)

let test_remap_single_entry_is_transactional () =
  (* remapping one leaf in place (single word): old/new only — the reason
     Example 4's behavior is about *pairs* of addresses, not one *)
  let mem, pool, root = fresh () in
  ignore (map mem pool root 5 20);
  match Page_table.plan_unmap mem g ~root ~va:(Page_table.page_va 5) with
  | None -> Alcotest.fail "plan"
  | Some w ->
      let w = { w with Page_table.w_new = Pte.encode (Pte.Page (21, Pte.rw)) } in
      let bad =
        Mmu_walker.transactional_violations mem g ~root ~writes:[ w ]
          ~vas:[ Page_table.page_va 5 ]
      in
      Alcotest.(check int) "single-word remap transactional" 0
        (List.length bad)

let qcheck_fresh_maps_always_transactional =
  QCheck.Test.make ~name:"walk-allocate-set batches are transactional"
    ~count:60
    QCheck.(pair (int_bound 2000) (int_bound 30))
    (fun (vp, pfn) ->
      let mem, pool, root = fresh () in
      let writes = plan_map mem pool root vp pfn in
      Mmu_walker.transactional_violations mem g ~root ~writes
        ~vas:[ Page_table.page_va vp; Page_table.page_va (vp + 1) ]
      = [])

let () =
  Alcotest.run "walker"
    [ ( "relaxed-walk",
        [ Alcotest.test_case "no pending = atomic walk" `Quick
            test_no_pending_equals_walk;
          Alcotest.test_case "example 4: independent reads" `Quick
            test_example4_per_read_independence ] );
      ( "transactional",
        [ Alcotest.test_case "fresh map" `Quick test_fresh_map_is_transactional;
          Alcotest.test_case "unmap" `Quick
            test_single_write_unmap_transactional;
          Alcotest.test_case "single-entry remap" `Quick
            test_remap_single_entry_is_transactional;
          Alcotest.test_case "example 5 rejected" `Quick
            test_example5_not_transactional;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_fresh_maps_always_transactional ]
      ) ]
