(* Model-based property testing: random operation sequences against the
   page-table substrate and the ownership discipline, checked against
   simple reference models (an association-list mapping; a set-based
   ownership ledger). *)

open Machine

(* ---- page tables vs an assoc-list reference model ---- *)

let pt_model_run geometry seed steps =
  let rng = Random.State.make [| seed |] in
  let mem = Phys_mem.create 96 in
  let pool = Page_pool.create ~name:"mb" ~mem ~first_pfn:1 ~n_pages:64 in
  let root = Page_pool.alloc pool in
  (* the reference: vp -> pfn *)
  let model = Hashtbl.create 16 in
  let ok = ref true in
  for _ = 1 to steps do
    let vp = Random.State.int rng 1500 in
    let va = Page_table.page_va vp in
    (match Random.State.int rng 3 with
    | 0 -> (
        let pfn = 64 + Random.State.int rng 32 in
        match
          Page_table.plan_map mem geometry ~pool ~root ~va ~target_pfn:pfn
            ~perms:Pte.rw
        with
        | Ok ws ->
            if Hashtbl.mem model vp then ok := false
              (* mapping over an existing entry must be refused *)
            else begin
              Page_table.apply_writes mem ws;
              Hashtbl.replace model vp pfn
            end
        | Error `Already_mapped ->
            if not (Hashtbl.mem model vp) then ok := false
        | exception Page_pool.Pool_exhausted _ -> ())
    | 1 -> (
        match Page_table.plan_unmap mem geometry ~root ~va with
        | Some w ->
            if not (Hashtbl.mem model vp) then ok := false
            else begin
              Page_table.apply_write mem w;
              Hashtbl.remove model vp
            end
        | None -> if Hashtbl.mem model vp then ok := false)
    | _ ->
        (* walk and compare against the model *)
        let expected = Hashtbl.find_opt model vp in
        let got =
          match Page_table.walk mem geometry ~root va with
          | Page_table.Mapped (pfn, _) -> Some pfn
          | Page_table.Fault _ -> None
        in
        if expected <> got then ok := false);
    (* global agreement of the full mapping list, occasionally *)
    if Random.State.int rng 10 = 0 then begin
      let actual =
        List.sort compare
          (List.map (fun (vp, pfn, _) -> (vp, pfn))
             (Page_table.mappings mem geometry ~root))
      in
      let expected =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
      in
      if actual <> expected then ok := false
    end
  done;
  !ok

let qcheck_pt_model_3 =
  QCheck.Test.make ~name:"page table = assoc map (3-level)" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed -> pt_model_run Page_table.three_level seed 120)

let qcheck_pt_model_4 =
  QCheck.Test.make ~name:"page table = assoc map (4-level)" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed -> pt_model_run Page_table.four_level seed 80)

(* ---- TLB + table agree with the reference under invalidation ---- *)

let qcheck_tlb_coherent_with_walks =
  QCheck.Test.make
    ~name:"translate-with-TLB = translate-without, given TLBI discipline"
    ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let mem = Phys_mem.create 96 in
      let pool = Page_pool.create ~name:"tb" ~mem ~first_pfn:1 ~n_pages:64 in
      let g = Page_table.three_level in
      let root = Page_pool.alloc pool in
      let tlb = Tlb.create ~capacity:4 in
      let translate vp =
        match Tlb.lookup tlb ~vmid:1 ~vp with
        | Some (pfn, _) -> Some pfn
        | None -> (
            match Page_table.walk mem g ~root (Page_table.page_va vp) with
            | Page_table.Mapped (pfn, perms) ->
                Tlb.fill tlb ~vmid:1 ~vp ~pfn ~perms;
                Some pfn
            | Page_table.Fault _ -> None)
      in
      let ok = ref true in
      for _ = 1 to 80 do
        let vp = Random.State.int rng 12 in
        let va = Page_table.page_va vp in
        (match Random.State.int rng 3 with
        | 0 -> (
            match
              Page_table.plan_map mem g ~pool ~root ~va
                ~target_pfn:(64 + Random.State.int rng 16)
                ~perms:Pte.rw
            with
            | Ok ws -> Page_table.apply_writes mem ws
            (* a fresh mapping needs no invalidation (empty entry) *)
            | Error `Already_mapped -> ()
            | exception Page_pool.Pool_exhausted _ -> ())
        | 1 -> (
            match Page_table.plan_unmap mem g ~root ~va with
            | Some w ->
                Page_table.apply_write mem w;
                (* the Sequential-TLB-Invalidation discipline *)
                Tlb.invalidate_va tlb ~vmid:1 ~vp
            | None -> ())
        | _ ->
            let via_tlb = translate vp in
            let direct =
              match Page_table.walk mem g ~root va with
              | Page_table.Mapped (pfn, _) -> Some pfn
              | Page_table.Fault _ -> None
            in
            if via_tlb <> direct then ok := false)
      done;
      !ok)

(* ---- SC ⊆ RM extended to the XCHG/CAS atomics ---- *)

let gen_thread tid =
  let open QCheck.Gen in
  let open Memmodel in
  let reg =
    let c = ref 0 in
    map
      (fun () ->
        incr c;
        Reg.v (Printf.sprintf "q%d_%d" tid !c))
      unit
  in
  let base = oneofl [ "x"; "y" ] in
  let instr =
    frequency
      [ (2, map2 (fun r b -> Instr.load r (Expr.at b)) reg base);
        ( 2,
          map2 (fun b v -> Instr.store (Expr.at b) (Expr.c v)) base
            (int_range 1 2) );
        (1, map2 (fun r b -> Instr.xchg r (Expr.at b) (Expr.c 5)) reg base);
        ( 1,
          map2
            (fun r b ->
              Instr.cas r (Expr.at b) ~expected:(Expr.c 0)
                ~desired:(Expr.c 9))
            reg base );
        (1, return Instr.dmb) ]
  in
  map (fun l -> Prog.thread tid l) (list_size (int_range 1 4) instr)

let qcheck_sc_subset_rm_with_atomics =
  let open Memmodel in
  QCheck.Test.make
    ~name:"SC ⊆ Promising with XCHG/CAS in the mix" ~count:60
    (QCheck.make
       (QCheck.Gen.map2
          (fun t1 t2 ->
            Prog.make ~name:"rand-at"
              ~observables:
                [ Prog.Obs_loc (Loc.v "x"); Prog.Obs_loc (Loc.v "y") ]
              [ t1; t2 ])
          (gen_thread 1) (gen_thread 2)))
    (fun prog ->
      let normals b =
        Behavior.Outcome_set.filter
          (fun o -> o.Behavior.status = Behavior.Normal)
          b
      in
      let sc = normals (Sc.run prog) in
      let rm =
        normals
          (Promising.run
             ~config:{ Promising.default_config with max_promises = 2 }
             prog)
      in
      Behavior.subset sc rm)

let () =
  Alcotest.run "model-based"
    [ ( "page-table",
        [ QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_pt_model_3;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_pt_model_4 ] );
      ( "tlb",
        [ QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_tlb_coherent_with_walks ] );
      ( "atomics",
        [ QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_sc_subset_rm_with_atomics ] ) ]
