(* Executable refinement between KCore and its abstract specification:
   randomized commutation testing (abstract the implementation state, run
   the same hypercall on both sides, compare), plus induction-style
   invariant preservation on the abstract machine alone. *)

open Sekvm
open Vrm

let cfg = Kcore.default_boot_config

let abs_t = Alcotest.testable Abs_spec.pp Abs_spec.equal

(* ---- directed commutation cases ---- *)

let fresh () =
  let kcore = Kcore.boot cfg in
  let kserv = Kserv.create kcore ~first_free_pfn:(Kcore.kserv_base cfg) in
  (kcore, kserv)

let test_register_vm_commutes () =
  let kcore, _ = fresh () in
  let a0 = Abs_spec.abstract kcore in
  let vmid = Kcore.register_vm kcore ~cpu:0 in
  let a_spec, vmid_spec = Abs_spec.spec_register_vm a0 in
  Alcotest.(check int) "same vmid" vmid_spec vmid;
  Alcotest.check abs_t "states agree" a_spec (Abs_spec.abstract kcore)

let test_fault_path_commutes () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let pfn = Kserv.alloc_page kserv in
  let a0 = Abs_spec.abstract kcore in
  (match Kcore.map_page_to_vm kcore ~cpu:0 ~vmid ~ipa:(Machine.Page_table.page_va 50) ~pfn with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "donation denied");
  (match Abs_spec.spec_map_page_to_vm a0 ~vmid ~vp:50 ~pfn with
  | Ok a_spec -> Alcotest.check abs_t "states agree" a_spec (Abs_spec.abstract kcore)
  | Error `Denied -> Alcotest.fail "spec denied")

let test_denied_donation_is_stutter () =
  (* a denied hypercall must leave the abstract state unchanged on both
     sides — including the subtle already-mapped and kcore-page cases *)
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let a0 = Abs_spec.abstract kcore in
  (* donating a KCore page *)
  (match Kcore.map_page_to_vm kcore ~cpu:0 ~vmid ~ipa:(Machine.Page_table.page_va 60) ~pfn:2 with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "kcore page donated");
  Alcotest.check abs_t "impl stuttered" a0 (Abs_spec.abstract kcore);
  (match Abs_spec.spec_map_page_to_vm a0 ~vmid ~vp:60 ~pfn:2 with
  | Error `Denied -> ()
  | Ok _ -> Alcotest.fail "spec allowed");
  (* donating to an already-populated guest page *)
  let pfn = Kserv.alloc_page kserv in
  (match Kcore.map_page_to_vm kcore ~cpu:0 ~vmid ~ipa:0 ~pfn with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "double mapping");
  Alcotest.check abs_t "impl stuttered again" a0 (Abs_spec.abstract kcore)

let test_share_unshare_commute () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let ipa = Machine.Page_table.page_va 30 in
  ignore (Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0 [ Vm.G_write (ipa, 5) ]);
  let a0 = Abs_spec.abstract kcore in
  (match Kcore.vm_share_page kcore ~cpu:0 ~vmid ~ipa with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "share denied");
  let a1 =
    match Abs_spec.spec_share a0 ~vmid ~vp:30 with
    | Ok a -> a
    | Error `Denied -> Alcotest.fail "spec share denied"
  in
  Alcotest.check abs_t "share commutes" a1 (Abs_spec.abstract kcore);
  (match Kcore.vm_unshare_page kcore ~cpu:0 ~vmid ~ipa with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "unshare denied");
  let a2 =
    match Abs_spec.spec_unshare a1 ~vmid ~vp:30 with
    | Ok a -> a
    | Error `Denied -> Alcotest.fail "spec unshare denied"
  in
  Alcotest.check abs_t "unshare commutes" a2 (Abs_spec.abstract kcore)

let test_teardown_commutes () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:2 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  ignore
    (Kserv.run_guest kserv ~cpu:1 ~vmid ~vcpuid:0
       ([ Vm.G_write (Machine.Page_table.page_va 40, 9) ]
       @ Vm.virtio_round ~ring_ipa:(Machine.Page_table.page_va 41) ~payload:3));
  let a0 = Abs_spec.abstract kcore in
  Kcore.teardown_vm kcore ~cpu:0 ~vmid;
  Alcotest.check abs_t "teardown commutes"
    (Abs_spec.spec_teardown a0 ~vmid)
    (Abs_spec.abstract kcore)

let test_boot_commutes () =
  let kcore, kserv = fresh () in
  let a0 = Abs_spec.abstract kcore in
  (* replay KServ's boot against the spec: register, fault the image
     pages into KServ's map, transfer *)
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:2 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let pfns = List.assoc vmid kserv.Kserv.booted in
  let a, vmid_spec = Abs_spec.spec_register_vm a0 in
  Alcotest.(check int) "vmid" vmid_spec vmid;
  let a =
    List.fold_left
      (fun a pfn ->
        match Abs_spec.spec_kserv_fault a ~pfn with
        | Ok a -> a
        | Error `Denied -> Alcotest.fail "spec fault denied")
      a pfns
  in
  let a =
    match Abs_spec.spec_set_vm_image a ~vmid ~pfns with
    | Ok a -> a
    | Error `Denied -> Alcotest.fail "spec image denied"
  in
  Alcotest.check abs_t "boot commutes" a (Abs_spec.abstract kcore)

let test_smmu_commutes () =
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let vm_pfn =
    List.hd
      (Machine.S2page.pages_owned_by kcore.Kcore.s2page
         (Machine.S2page.Vm vmid))
  in
  let a0 = Abs_spec.abstract kcore in
  (match
     Kcore.smmu_attach kcore ~cpu:0 ~device:9 ~owner:(Machine.S2page.Vm vmid)
   with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "attach denied");
  let a1 =
    Result.get_ok
      (Abs_spec.spec_smmu_attach a0 ~device:9 ~owner:(Abs_spec.O_vm vmid))
  in
  Alcotest.check abs_t "attach commutes" a1 (Abs_spec.abstract kcore);
  (match Kcore.smmu_map kcore ~cpu:0 ~device:9 ~iova:0 ~pfn:vm_pfn with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "map denied");
  let a2 =
    Result.get_ok
      (Abs_spec.spec_smmu_map a1 ~device:9 ~iova_page:0 ~pfn:vm_pfn)
  in
  Alcotest.check abs_t "map commutes" a2 (Abs_spec.abstract kcore);
  (* mapping a KCore frame is denied on both sides *)
  (match Kcore.smmu_map kcore ~cpu:0 ~device:9 ~iova:4096 ~pfn:2 with
  | Error `Denied -> ()
  | Ok () -> Alcotest.fail "kcore dma allowed");
  (match Abs_spec.spec_smmu_map a2 ~device:9 ~iova_page:1 ~pfn:2 with
  | Error `Denied -> ()
  | Ok _ -> Alcotest.fail "spec allowed kcore dma");
  (match Kcore.smmu_unmap kcore ~cpu:0 ~device:9 ~iova:0 with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "unmap denied");
  let a3 =
    Result.get_ok (Abs_spec.spec_smmu_unmap a2 ~device:9 ~iova_page:0)
  in
  Alcotest.check abs_t "unmap commutes" a3 (Abs_spec.abstract kcore)

let test_teardown_revokes_dma_commutes () =
  (* the dangling-DMA bug the spec work uncovered: teardown must drop the
     VM's device windows on both sides *)
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  let vm_pfn =
    List.hd
      (Machine.S2page.pages_owned_by kcore.Kcore.s2page
         (Machine.S2page.Vm vmid))
  in
  (match
     Kcore.smmu_attach kcore ~cpu:0 ~device:4 ~owner:(Machine.S2page.Vm vmid)
   with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "attach");
  (match Kcore.smmu_map kcore ~cpu:0 ~device:4 ~iova:0 ~pfn:vm_pfn with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "map");
  let a0 = Abs_spec.abstract kcore in
  Kcore.teardown_vm kcore ~cpu:0 ~vmid;
  Alcotest.check abs_t "teardown revokes DMA"
    (Abs_spec.spec_teardown a0 ~vmid)
    (Abs_spec.abstract kcore);
  Alcotest.(check int) "invariants clean" 0
    (List.length (Kcore.check_invariants kcore))

let test_dead_vm_stutters () =
  (* a torn-down VM's tree is freed: donations to it and devices for it
     are denied on both sides, and its device can be attached anew *)
  let kcore, kserv = fresh () in
  let vmid =
    match Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 with
    | Ok v -> v
    | Error _ -> Alcotest.fail "boot"
  in
  (match
     Kcore.smmu_attach kcore ~cpu:0 ~device:1 ~owner:(Machine.S2page.Vm vmid)
   with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "attach");
  let a0 = Abs_spec.abstract kcore in
  Kcore.teardown_vm kcore ~cpu:0 ~vmid;
  let a1 = Abs_spec.spec_teardown a0 ~vmid in
  Alcotest.check abs_t "teardown commutes" a1 (Abs_spec.abstract kcore);
  let pfn = Kserv.alloc_page kserv in
  (match
     ( Kcore.map_page_to_vm kcore ~cpu:0 ~vmid
         ~ipa:(Machine.Page_table.page_va 50) ~pfn,
       Abs_spec.spec_map_page_to_vm a1 ~vmid ~vp:50 ~pfn )
   with
  | Error `Denied, Error `Denied -> ()
  | _ -> Alcotest.fail "donation to a torn-down VM");
  (match
     ( Kcore.smmu_attach kcore ~cpu:0 ~device:2 ~owner:(Machine.S2page.Vm vmid),
       Abs_spec.spec_smmu_attach a1 ~device:2 ~owner:(Abs_spec.O_vm vmid) )
   with
  | Error `Denied, Error `Denied -> ()
  | _ -> Alcotest.fail "device for a torn-down VM");
  Alcotest.check abs_t "denials stutter" a1 (Abs_spec.abstract kcore);
  (match Kcore.smmu_attach kcore ~cpu:0 ~device:1 ~owner:Machine.S2page.Kserv with
  | Ok () -> ()
  | Error `Denied -> Alcotest.fail "re-attach");
  Alcotest.check abs_t "re-attach commutes"
    (Result.get_ok
       (Abs_spec.spec_smmu_attach a1 ~device:1 ~owner:Abs_spec.O_kserv))
    (Abs_spec.abstract kcore)

let test_unknown_vmid_denied () =
  (* KServ is untrusted: every hypercall naming a vmid KCore never
     registered is denied on both sides and changes nothing, and
     tearing it down does nothing *)
  let kcore, kserv = fresh () in
  let vmid = 7 and pfn = Kserv.alloc_page kserv in
  let a0 = Abs_spec.abstract kcore in
  let agree name ~impl ~spec =
    Alcotest.(check (pair bool bool)) (name ^ " denied on both sides")
      (true, true) (impl, spec);
    Alcotest.check abs_t (name ^ " stutters") a0 (Abs_spec.abstract kcore);
    Alcotest.(check int) (name ^ " invariants clean") 0
      (List.length (Kcore.check_invariants kcore))
  in
  agree "map_page_to_vm"
    ~impl:
      (Kcore.map_page_to_vm kcore ~cpu:0 ~vmid
         ~ipa:(Machine.Page_table.page_va 3) ~pfn
      = Error `Denied)
    ~spec:(Result.is_error (Abs_spec.spec_map_page_to_vm a0 ~vmid ~vp:3 ~pfn));
  agree "set_vm_image"
    ~impl:
      (Kcore.set_vm_image kcore ~cpu:0 ~vmid ~pfns:[ pfn ] ~expected_hash:0
      = Error `Denied)
    ~spec:(Result.is_error (Abs_spec.spec_set_vm_image a0 ~vmid ~pfns:[ pfn ]));
  agree "vm_share_page"
    ~impl:(Kcore.vm_share_page kcore ~cpu:0 ~vmid ~ipa:0 = Error `Denied)
    ~spec:(Result.is_error (Abs_spec.spec_share a0 ~vmid ~vp:0));
  agree "vm_unshare_page"
    ~impl:(Kcore.vm_unshare_page kcore ~cpu:0 ~vmid ~ipa:0 = Error `Denied)
    ~spec:(Result.is_error (Abs_spec.spec_unshare a0 ~vmid ~vp:0));
  (* no spec transition of their own: the spec's answer is a stutter *)
  agree "vm_protect_page"
    ~impl:(Kcore.vm_protect_page kcore ~cpu:0 ~vmid ~ipa:0 = Error `Denied)
    ~spec:true;
  agree "vgic_send_sgi"
    ~impl:
      (Kcore.vgic_send_sgi kcore ~cpu:0 ~vmid ~to_vcpu:0 ~irq:1
      = Error `Denied)
    ~spec:true;
  Kcore.teardown_vm kcore ~cpu:0 ~vmid;
  Alcotest.check abs_t "spec teardown is a no-op" a0
    (Abs_spec.spec_teardown a0 ~vmid);
  agree "teardown_vm" ~impl:true ~spec:true

(* ---- randomized refinement ---- *)

(* What the refinement storms reach (see Cover): the branch taken, the
   device and owner kind drawn, and the verdict both sides agree on. *)
let census = Cover.create ()
let cover = Cover.hit census

(* Floors for storms 0-29, about half of what they reach. *)
let floors =
  [ ("branch boot", 60); ("branch donate", 25); ("branch share", 35);
    ("branch unshare", 30); ("branch teardown", 30);
    ("branch kserv fault", 50); ("branch smmu attach", 60);
    ("branch smmu map", 50); ("branch smmu unmap", 60);
    ("branch invariant", 150);
    ("device 0", 50); ("device 1", 50); ("device 2", 50);
    ("owner kserv", 45); ("owner vm", 15);
    ("donate Ok", 20); ("donate Denied", 3); ("share Ok", 15);
    ("share Denied", 15); ("unshare Ok", 2); ("unshare Denied", 30);
    ("smmu attach Ok", 35); ("smmu attach Denied", 25);
    ("smmu map Ok", 15); ("smmu map Denied", 35);
    ("smmu unmap Ok", 2); ("smmu unmap Denied", 60) ]

(* Replay a random mix of spec-covered hypercalls against both machines,
   requiring commutation after every step. The SMMU actions map pages
   KServ is about to donate, so "DMA-map, then donate" comes up often. *)
let refinement_run seed steps : bool =
  let rng = Random.State.make [| seed |] in
  let kcore, kserv = fresh () in
  let live = ref [] in
  let ok = ref true in
  let check_point label a_spec =
    if not (Abs_spec.equal a_spec (Abs_spec.abstract kcore)) then begin
      Format.eprintf "seed %d: divergence after %s@." seed label;
      ok := false
    end
  in
  let abs () = Abs_spec.abstract kcore in
  (* one hypercall on both sides, started from the abstract state [a0]:
     same verdict, and the same state after it *)
  let agree label a0 impl spec =
    match (impl, spec) with
    | Ok (), Ok a ->
        cover (label ^ " Ok");
        check_point label a
    | Error `Denied, Error `Denied ->
        cover (label ^ " Denied");
        check_point ("denied " ^ label) a0
    | Ok (), Error `Denied ->
        Format.eprintf "seed %d: %s: impl allowed, spec denied@." seed label;
        ok := false
    | Error `Denied, Ok _ ->
        Format.eprintf "seed %d: %s: impl denied, spec allowed@." seed label;
        ok := false
  in
  let below = Random.State.int rng in
  let pick_live () = List.nth !live (below (List.length !live)) in
  let device () =
    let d = below 3 in
    cover (Printf.sprintf "device %d" d);
    d
  in
  (try
     for _ = 1 to steps do
       if not !ok then raise Exit;
       match below 10 with
       | 0 when List.length !live < 4 -> (
           cover "branch boot";
           let a0 = abs () in
           (* a one-page image is the next free page (a short run never
              exhausts KServ's memory) *)
           let pfn = List.hd kserv.Kserv.free_pfns in
           let boot = Kserv.boot_vm kserv ~cpu:0 ~n_vcpus:1 ~image_pages:1 in
           let a, _ = Abs_spec.spec_register_vm a0 in
           let a = Result.get_ok (Abs_spec.spec_kserv_fault a ~pfn) in
           let vmid = a0.Abs_spec.next_vmid in
           let image = Abs_spec.spec_set_vm_image a ~vmid ~pfns:[ pfn ] in
           match boot with
           | Ok _ ->
               live := vmid :: !live;
               agree "boot" a (Ok ()) image
           | Error `Denied -> agree "boot" a (Error `Denied) image
           | Error `Bad_hash -> Alcotest.fail "honest image rejected")
       | 1 when !live <> [] ->
           cover "branch donate";
           let vmid = pick_live () in
           let vp = 32 + below 16 in
           let pfn = Kserv.alloc_page kserv in
           let a0 = abs () in
           let r =
             Kcore.map_page_to_vm kcore ~cpu:0 ~vmid
               ~ipa:(Machine.Page_table.page_va vp) ~pfn
           in
           agree "donate" a0 r (Abs_spec.spec_map_page_to_vm a0 ~vmid ~vp ~pfn);
           if r = Error `Denied then Kserv.free_page kserv pfn
       | 2 when !live <> [] ->
           cover "branch share";
           let vmid = pick_live () in
           let vp = if below 2 = 0 then 0 else 32 + below 16 in
           let a0 = abs () in
           agree "share" a0
             (Kcore.vm_share_page kcore ~cpu:0 ~vmid
                ~ipa:(Machine.Page_table.page_va vp))
             (Abs_spec.spec_share a0 ~vmid ~vp)
       | 3 when !live <> [] ->
           cover "branch unshare";
           let vmid = pick_live () in
           let vp = if below 2 = 0 then 0 else 32 + below 16 in
           let a0 = abs () in
           agree "unshare" a0
             (Kcore.vm_unshare_page kcore ~cpu:0 ~vmid
                ~ipa:(Machine.Page_table.page_va vp))
             (Abs_spec.spec_unshare a0 ~vmid ~vp)
       | 4 when !live <> [] ->
           cover "branch teardown";
           let vmid = pick_live () in
           live := List.filter (fun v -> v <> vmid) !live;
           let a0 = abs () in
           Kcore.teardown_vm kcore ~cpu:0 ~vmid;
           check_point "teardown" (Abs_spec.spec_teardown a0 ~vmid)
       | 5 ->
           cover "branch kserv fault";
           let pfn = below cfg.Kcore.n_pages in
           let a0 = abs () in
           agree "kserv fault" a0
             (Kcore.kserv_fault kcore ~cpu:0
                ~addr:(Machine.Page_table.page_va pfn))
             (Abs_spec.spec_kserv_fault a0 ~pfn)
       | 6 ->
           cover "branch smmu attach";
           let device = device () in
           let owner, a_owner =
             if !live = [] || below 2 = 0 then (
               cover "owner kserv";
               (Machine.S2page.Kserv, Abs_spec.O_kserv))
             else
               let vmid = pick_live () in
               cover "owner vm";
               (Machine.S2page.Vm vmid, Abs_spec.O_vm vmid)
           in
           let a0 = abs () in
           agree "smmu attach" a0
             (Kcore.smmu_attach kcore ~cpu:0 ~device ~owner)
             (Abs_spec.spec_smmu_attach a0 ~device ~owner:a_owner)
       | 7 ->
           cover "branch smmu map";
           let device = device () in
           let iova_page = below 4 in
           (* often the page KServ will donate next *)
           let pfn =
             if below 2 = 0 then List.hd kserv.Kserv.free_pfns
             else below cfg.Kcore.n_pages
           in
           let a0 = abs () in
           agree "smmu map" a0
             (Kcore.smmu_map kcore ~cpu:0 ~device
                ~iova:(Machine.Page_table.page_va iova_page) ~pfn)
             (Abs_spec.spec_smmu_map a0 ~device ~iova_page ~pfn)
       | 8 ->
           cover "branch smmu unmap";
           let device = device () in
           let iova_page = below 4 in
           let a0 = abs () in
           agree "smmu unmap" a0
             (Kcore.smmu_unmap kcore ~cpu:0 ~device
                ~iova:(Machine.Page_table.page_va iova_page))
             (Abs_spec.spec_smmu_unmap a0 ~device ~iova_page)
       | _ -> (
           (* abstract invariant must also hold at every point *)
           cover "branch invariant";
           match Abs_spec.invariant (abs ()) with
           | Ok () -> ()
           | Error msg ->
               Format.eprintf "seed %d: abstract invariant: %s@." seed msg;
               ok := false)
     done
   with Exit -> ());
  !ok

let qcheck_refinement =
  QCheck.Test.make ~name:"KCore refines its abstract specification"
    ~count:15
    QCheck.(int_bound 10_000)
    (fun seed -> refinement_run seed 40)

(* Refinement storms 0-29 all commute and reach every label of the
   census at its floor. *)
let test_refinement_census () =
  Hashtbl.reset census;
  Alcotest.(check (list int)) "diverging storms" []
    (List.filter (fun seed -> not (refinement_run seed 40)) (List.init 30 Fun.id));
  Cover.check census floors

(* ---- abstract-machine induction ---- *)

let test_spec_invariant_induction () =
  (* the §5.3 invariants hold initially and are preserved by every spec
     transition on a randomly driven abstract machine (no implementation
     involved: this is the induction the Coq development does) *)
  let rng = Random.State.make [| 99 |] in
  let below = Random.State.int rng in
  let st = ref (Abs_spec.abstract (Kcore.boot cfg)) in
  let check () =
    match Abs_spec.invariant !st with
    | Ok () -> ()
    | Error m -> Alcotest.failf "abstract invariant broken: %s" m
  in
  check ();
  let seen = Cover.create () in
  let apply label = function
    | Ok a ->
        Cover.hit seen (label ^ " Ok");
        st := a
    | Error `Denied -> Cover.hit seen (label ^ " Denied")
  in
  let vms = ref [] in
  let pick_vm () = List.nth !vms (below (List.length !vms)) in
  (* half the frames come from a small window at the bottom of KServ's
     memory, so the same page is often DMA-mapped and then donated *)
  let pfn () =
    if below 2 = 0 then below 1024 else Kcore.kserv_base cfg + below 8
  in
  for _ = 1 to 300 do
    (match below 9 with
    | 0 ->
        let a, vmid = Abs_spec.spec_register_vm !st in
        apply "register" (Ok a);
        vms := vmid :: !vms
    | 1 when !vms <> [] ->
        let vmid = pick_vm () in
        apply "donate"
          (Abs_spec.spec_map_page_to_vm !st ~vmid ~vp:(below 8) ~pfn:(pfn ()))
    | 2 when !vms <> [] ->
        let vmid = pick_vm () in
        apply "share" (Abs_spec.spec_share !st ~vmid ~vp:(below 8))
    | 3 when !vms <> [] ->
        let vmid = pick_vm () in
        apply "unshare" (Abs_spec.spec_unshare !st ~vmid ~vp:(below 8))
    | 4 when !vms <> [] ->
        let vmid = pick_vm () in
        vms := List.filter (( <> ) vmid) !vms;
        apply "teardown" (Ok (Abs_spec.spec_teardown !st ~vmid))
    | 6 ->
        let owner =
          if !vms = [] || below 2 = 0 then Abs_spec.O_kserv
          else Abs_spec.O_vm (pick_vm ())
        in
        apply "smmu attach"
          (Abs_spec.spec_smmu_attach !st ~device:(below 3) ~owner)
    | 7 ->
        apply "smmu map"
          (Abs_spec.spec_smmu_map !st ~device:(below 3) ~iova_page:(below 4)
             ~pfn:(pfn ()))
    | 8 ->
        apply "smmu unmap"
          (Abs_spec.spec_smmu_unmap !st ~device:(below 3) ~iova_page:(below 4))
    | _ -> apply "kserv fault" (Abs_spec.spec_kserv_fault !st ~pfn:(pfn ())));
    check ()
  done;
  (* every transition was taken, and every one that can be denied was *)
  Cover.check seen
    (List.map
       (fun l -> (l, 1))
       ([ "register Ok"; "teardown Ok" ]
       @ List.concat_map
           (fun op -> [ op ^ " Ok"; op ^ " Denied" ])
           [ "donate"; "share"; "unshare"; "smmu attach"; "smmu map";
             "smmu unmap"; "kserv fault" ]))

let () =
  Alcotest.run "abs-spec"
    [ ( "commutation",
        [ Alcotest.test_case "register_vm" `Quick test_register_vm_commutes;
          Alcotest.test_case "fault path" `Quick test_fault_path_commutes;
          Alcotest.test_case "denied donation stutters" `Quick
            test_denied_donation_is_stutter;
          Alcotest.test_case "share/unshare" `Quick
            test_share_unshare_commute;
          Alcotest.test_case "teardown" `Quick test_teardown_commutes;
          Alcotest.test_case "boot" `Quick test_boot_commutes;
          Alcotest.test_case "smmu ops" `Quick test_smmu_commutes;
          Alcotest.test_case "teardown revokes DMA" `Quick
            test_teardown_revokes_dma_commutes;
          Alcotest.test_case "torn-down VM stutters" `Quick
            test_dead_vm_stutters;
          Alcotest.test_case "unknown vmid denied" `Quick
            test_unknown_vmid_denied ] );
      ( "randomized",
        [ QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_refinement;
          Alcotest.test_case "census floors" `Quick test_refinement_census;
          Alcotest.test_case "abstract invariant induction" `Quick
            test_spec_invariant_induction ] ) ]
