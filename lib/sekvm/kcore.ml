(** KCore: the trusted core of the retrofitted KVM hypervisor (paper §5).

    KCore runs at EL2, owns all page tables (its own EL2 table, stage-2
    tables for KServ and every VM, SMMU tables), and tracks page ownership
    in the {!Machine.S2page} database. KServ (the untrusted host Linux
    services) and VMs interact with it exclusively through the hypercall
    surface below; every path that the SeKVM proofs cover is implemented:
    VM registration ([gen_vmid] under the core lock), vCPU registration
    and the ACTIVE/INACTIVE run protocol, VM image authentication through
    the EL2 remap region, stage-2 fault handling with ownership transfer,
    page sharing for paravirtual I/O, SMMU device assignment and DMA
    mapping, and VM teardown with scrubbing.

    The security content mirrors the paper: no page owned by KCore is ever
    mapped into a stage-2 or SMMU table; a page has one owner; KServ can
    reach a VM page only while the VM has explicitly shared it. The
    invariant checker at the bottom is executable and runs after every
    mutation in the integration tests. *)

open Machine

exception Kcore_panic of string

let panic fmt = Format.kasprintf (fun s -> raise (Kcore_panic s)) fmt

type vm_state = Registered | Verified | Torn_down [@@deriving show, eq]

type vm = {
  vmid : int;
  mutable vstate : vm_state;
  npt : Npt.t;
  mutable vcpus : Vcpu_ctxt.t list;
  mutable image_hash : int option;
  vm_lock : Ticket_lock.t;
  mutable next_image_ipa : int;  (** bump pointer for image placement *)
  vgic : Vgic.t;  (** in-kernel emulated interrupt controller *)
}

type t = {
  mem : Phys_mem.t;
  geometry : Page_table.geometry;
  s2page : S2page.t;
  trace : Trace.t;
  oracle : Data_oracle.t;
  el2 : El2_pt.t;
  el2_pool : Page_pool.t;
  s2_pool : Page_pool.t;
  smmu_pool : Page_pool.t;
  smmu_ops : Smmu_ops.t;
  cpus : Cpu.t array;
  core_lock : Ticket_lock.t;
  mutable next_vmid : int;
  max_vms : int;
  mutable vms : (int * vm) list;
  kserv_npt : Npt.t;
  mutable smmu_owners : (int * S2page.owner) list;  (** device -> owner *)
  inv_counts : int array;  (** {!check_invariants}' per-frame tally *)
  inv_touched : int array;  (** the frames [inv_counts] holds, as a stack *)
  mutable inv_n_touched : int;
  (* operation counters for the evaluation *)
  mutable hypercalls : int;
  mutable s2_faults : int;
  mutable vipis : int;
  mutable mmio_kernel : int;  (** exits emulated in the host kernel (vGIC) *)
  mutable mmio_user : int;  (** exits emulated in host userspace (UART) *)
}

let kserv_vmid = 0

(* ------------------------------------------------------------------ *)
(* Construction / boot                                                 *)
(* ------------------------------------------------------------------ *)

type boot_config = {
  n_pages : int;
  n_cpus : int;
  tlb_capacity : int;
  stage2_geometry : Page_table.geometry;
  max_vms : int;
  el2_pool_pages : int;
  s2_pool_pages : int;
  smmu_pool_pages : int;
  kcore_static_pages : int;  (** KCore code/data at the bottom of memory *)
  oracle_seed : int;
}

let default_boot_config =
  { n_pages = 1024;
    n_cpus = 4;
    tlb_capacity = 64;
    stage2_geometry = Page_table.three_level;
    max_vms = 33;
    el2_pool_pages = 24;
    s2_pool_pages = 192;
    smmu_pool_pages = 48;
    kcore_static_pages = 16;
    oracle_seed = 0x5ecb }

let invalidate_tlbs t scope =
  Array.iter
    (fun (cpu : Cpu.t) ->
      match scope with
      | Trace.Tlbi_all -> Tlb.invalidate_all cpu.Cpu.tlb
      | Trace.Tlbi_vmid v -> Tlb.invalidate_vmid cpu.Cpu.tlb ~vmid:v
      | Trace.Tlbi_va (v, vp) -> Tlb.invalidate_va cpu.Cpu.tlb ~vmid:v ~vp
      | Trace.Tlbi_smmu_dev _ -> ())
    t.cpus

(** First pfn KServ owns (everything below belongs to KCore). *)
let kserv_base cfg =
  cfg.kcore_static_pages + cfg.el2_pool_pages + cfg.s2_pool_pages
  + cfg.smmu_pool_pages

let boot (cfg : boot_config) : t =
  let mem = Phys_mem.create cfg.n_pages in
  let trace = Trace.create () in
  let oracle = Data_oracle.create ~seed:cfg.oracle_seed in
  let static_end = cfg.kcore_static_pages in
  let el2_pool =
    Page_pool.create ~name:"el2" ~mem ~first_pfn:static_end
      ~n_pages:cfg.el2_pool_pages
  in
  let s2_first = static_end + cfg.el2_pool_pages in
  let s2_pool =
    Page_pool.create ~name:"s2" ~mem ~first_pfn:s2_first
      ~n_pages:cfg.s2_pool_pages
  in
  let smmu_first = s2_first + cfg.s2_pool_pages in
  let smmu_pool =
    Page_pool.create ~name:"smmu" ~mem ~first_pfn:smmu_first
      ~n_pages:cfg.smmu_pool_pages
  in
  let s2page =
    S2page.create ~n_pages:cfg.n_pages ~default_owner:S2page.Kserv
  in
  (* KCore's static footprint and all reserved pools are KCore-owned *)
  for pfn = 0 to kserv_base cfg - 1 do
    S2page.set_owner s2page pfn S2page.Kcore
  done;
  (* EL2 uses a 4-level stage-1 table regardless of the stage-2 geometry *)
  let el2 =
    El2_pt.create ~mem ~geometry:Page_table.four_level ~pool:el2_pool ~trace
      ~cpu:0
  in
  let cpus =
    Array.init cfg.n_cpus (fun id ->
        Cpu.create ~id ~tlb_capacity:cfg.tlb_capacity)
  in
  let smmu =
    Smmu.create ~mem ~geometry:cfg.stage2_geometry ~pool:smmu_pool
      ~tlb_capacity:cfg.tlb_capacity
  in
  let smmu_ops = Smmu_ops.create ~smmu ~trace in
  let rec t =
    lazy
      { mem;
        geometry = cfg.stage2_geometry;
        s2page;
        trace;
        oracle;
        el2;
        el2_pool;
        s2_pool;
        smmu_pool;
        smmu_ops;
        cpus;
        core_lock = Ticket_lock.create "core";
        next_vmid = 1;
        max_vms = cfg.max_vms;
        vms = [];
        kserv_npt =
          Npt.create ~mem ~geometry:cfg.stage2_geometry ~pool:s2_pool
            ~vmid:kserv_vmid ~trace
            ~invalidate:(fun scope -> invalidate_tlbs (Lazy.force t) scope);
        smmu_owners = [];
        inv_counts = Array.make cfg.n_pages 0;
        inv_touched = Array.make cfg.n_pages 0;
        inv_n_touched = 0;
        hypercalls = 0;
        s2_faults = 0;
        vipis = 0;
        mmio_kernel = 0;
        mmio_user = 0 }
  in
  Lazy.force t

(* ------------------------------------------------------------------ *)
(* VM lifecycle                                                        *)
(* ------------------------------------------------------------------ *)

let find_vm t vmid =
  match List.assoc_opt vmid t.vms with
  | Some vm -> vm
  | None -> panic "unknown vmid %d" vmid

(* Run [f] on VM [vmid] under its lock, for a hypercall KServ makes
   about a VM. KServ is untrusted, so a vmid KCore never registered is a
   bad argument like any other: denied, never a KCore panic. *)
let with_vm t ~cpu vmid f =
  match List.assoc_opt vmid t.vms with
  | None -> Error `Denied
  | Some vm -> Ticket_lock.with_lock vm.vm_lock ~cpu (fun () -> f vm)

(* A torn-down VM's stage-2 tree is back in [s2_pool], and its root may
   already be part of another tree: nothing may walk or write it again. *)
let torn_down vm = vm.vstate = Torn_down

let vm_mappings vm = if torn_down vm then [] else Npt.mappings vm.npt
let vm_translate vm ~ipa = if torn_down vm then None else Npt.translate vm.npt ~ipa

(** The [gen_vmid] of Fig. 1, under the core lock. *)
let gen_vmid t ~cpu =
  Ticket_lock.with_lock t.core_lock ~cpu @@ fun () ->
  let vmid = t.next_vmid in
  if vmid < t.max_vms then begin
    t.next_vmid <- vmid + 1;
    vmid
  end
  else panic "gen_vmid: out of VM identifiers (MAX_VM=%d)" t.max_vms

let register_vm t ~cpu =
  t.hypercalls <- t.hypercalls + 1;
  let vmid = gen_vmid t ~cpu in
  let npt =
    Npt.create ~mem:t.mem ~geometry:t.geometry ~pool:t.s2_pool ~vmid
      ~trace:t.trace ~invalidate:(invalidate_tlbs t)
  in
  let vm =
    { vmid;
      vstate = Registered;
      npt;
      vcpus = [];
      image_hash = None;
      vm_lock = Ticket_lock.create (Printf.sprintf "vm-%d" vmid);
      next_image_ipa = 0;
      vgic = Vgic.create () }
  in
  t.vms <- (vmid, vm) :: t.vms;
  (* the stage-2 root and its tables are KCore memory *)
  vmid

let register_vcpu t ~cpu ~vmid ~vcpuid =
  t.hypercalls <- t.hypercalls + 1;
  let vm = find_vm t vmid in
  Ticket_lock.with_lock vm.vm_lock ~cpu @@ fun () ->
  if vm.vstate <> Registered then
    panic "register_vcpu: VM %d not in Registered state" vmid;
  if List.exists (fun v -> v.Vcpu_ctxt.vcpuid = vcpuid) vm.vcpus then
    panic "register_vcpu: vCPU %d/%d already registered" vmid vcpuid;
  vm.vcpus <- Vcpu_ctxt.create ~vmid ~vcpuid :: vm.vcpus

let find_vcpu vm vcpuid =
  match List.find_opt (fun v -> v.Vcpu_ctxt.vcpuid = vcpuid) vm.vcpus with
  | Some v -> v
  | None -> panic "unknown vCPU %d of VM %d" vcpuid vm.vmid

(* ------------------------------------------------------------------ *)
(* VM image authentication (secure boot, §5.1)                         *)
(* ------------------------------------------------------------------ *)

(** May KServ hand [pfn] to a VM? The page must be KServ's, unshared, and
    mapped nowhere but KServ's own 1:1 stage-2 entry: a page that a
    device still reaches through the SMMU, or that a VM already maps,
    must never become VM memory. *)
let donatable t pfn =
  S2page.owner t.s2page pfn = S2page.Kserv
  && (not (S2page.is_shared t.s2page pfn))
  && S2page.map_count t.s2page pfn
     = if Npt.is_mapped t.kserv_npt ~ipa:(Page_table.page_va pfn) then 1
       else 0

(** Donate [pfns] (KServ pages holding the VM image) to VM [vmid], after
    authenticating the image: each page is remapped into KCore's EL2 remap
    region (the pages need not be physically contiguous), hashed through
    the contiguous virtual addresses, and compared against
    [expected_hash]. On success the pages change owner to the VM and are
    mapped at consecutive guest IPAs. *)
let set_vm_image t ~cpu ~vmid ~pfns ~expected_hash :
    (unit, [ `Bad_hash | `Denied ]) result =
  t.hypercalls <- t.hypercalls + 1;
  with_vm t ~cpu vmid @@ fun vm ->
  if torn_down vm then Error `Denied
  else if vm.vstate <> Registered then
    panic "set_vm_image: VM %d wrong state" vmid
  else if not (List.for_all (donatable t) pfns) then Error `Denied
  else begin
    (* withdraw the pages from KServ's reach before reading them *)
    List.iter
      (fun pfn ->
        let ipa = Page_table.page_va pfn in
        match Npt.clear_s2pt t.kserv_npt ~cpu ~ipa with
        | Ok () -> S2page.decr_map t.s2page pfn
        | Error `Not_mapped -> ())
      pfns;
    (* hash through the EL2 remap region *)
    let h =
      List.fold_left
        (fun acc pfn ->
          let va = El2_pt.remap_pfn t.el2 ~cpu ~pfn in
          let mapped =
            match El2_pt.translate t.el2 ~va with
            | Some (p, _) -> p
            | None -> panic "remap_pfn: EL2 translation missing"
          in
          if mapped <> pfn then panic "remap_pfn: wrong EL2 mapping";
          (* reading untrusted memory: logged as an oracle-mediated read *)
          Trace.record t.trace (Trace.E_oracle_read { cpu; pfn });
          (acc * 0x01000193) lxor Phys_mem.digest_page t.mem mapped)
        0x811c9dc5 pfns
    in
    if h <> expected_hash then begin
      (* authentication failed: hand the pages back to KServ *)
      List.iter
        (fun pfn ->
          let ipa = Page_table.page_va pfn in
          (match Npt.set_s2pt t.kserv_npt ~cpu ~ipa ~pfn ~perms:Pte.rw with
          | Ok () -> S2page.incr_map t.s2page pfn
          | Error `Already_mapped -> ()))
        pfns;
      Error `Bad_hash
    end
    else begin
      vm.image_hash <- Some h;
      List.iteri
        (fun i pfn ->
          S2page.set_owner t.s2page pfn (S2page.Vm vmid);
          let ipa = Page_table.page_va (vm.next_image_ipa + i) in
          (match Npt.set_s2pt vm.npt ~cpu ~ipa ~pfn ~perms:Pte.rw with
          | Ok () -> S2page.incr_map t.s2page pfn
          | Error `Already_mapped -> panic "image IPA already mapped"))
        pfns;
      vm.next_image_ipa <- vm.next_image_ipa + List.length pfns;
      vm.vstate <- Verified;
      Ok ()
    end
  end

(* ------------------------------------------------------------------ *)
(* Running vCPUs: the ACTIVE/INACTIVE protocol                         *)
(* ------------------------------------------------------------------ *)

(** Enter VM [vmid]/vCPU [vcpuid] on [cpu]: claim the context (checking
    INACTIVE), install the stage-2 root and VMID. *)
let vcpu_load t ~cpu ~vmid ~vcpuid =
  t.hypercalls <- t.hypercalls + 1;
  let vm = find_vm t vmid in
  if vm.vstate <> Verified then panic "run_vcpu: VM %d not verified" vmid;
  let vcpu = find_vcpu vm vcpuid in
  Vcpu_ctxt.claim vcpu ~cpu;
  let c = t.cpus.(cpu) in
  c.Cpu.el <- Cpu.El0;
  c.Cpu.current_vmid <- vmid;
  c.Cpu.s2_root <- Some vm.npt.Npt.root;
  c.Cpu.running_vcpu <- Some (vmid, vcpuid)

(** Exit back to the hypervisor: save registers, release the context. *)
let vcpu_put t ~cpu =
  let c = t.cpus.(cpu) in
  match c.Cpu.running_vcpu with
  | None -> panic "vcpu_put: CPU %d not running a vCPU" cpu
  | Some (vmid, vcpuid) ->
      let vm = find_vm t vmid in
      let vcpu = find_vcpu vm vcpuid in
      Vcpu_ctxt.release vcpu ~cpu;
      c.Cpu.el <- Cpu.El2;
      c.Cpu.current_vmid <- kserv_vmid;
      c.Cpu.s2_root <- None;
      c.Cpu.running_vcpu <- None

(* ------------------------------------------------------------------ *)
(* Guest and KServ memory access through stage 2                       *)
(* ------------------------------------------------------------------ *)

type access_fault = Stage2_fault of int | Perm_fault of int
[@@deriving show, eq]

(** Hardware-path translation: TLB first, walk + fill on miss. A
    torn-down VM translates nothing. *)
let translate_hw t ~cpu ~vmid ~addr =
  let c = t.cpus.(cpu) in
  let vp = Page_table.va_page addr in
  match Tlb.lookup c.Cpu.tlb ~vmid ~vp with
  | Some (pfn, perms) -> Some (pfn, perms)
  | None -> (
      match
        if vmid = kserv_vmid then Npt.translate t.kserv_npt ~ipa:addr
        else vm_translate (find_vm t vmid) ~ipa:addr
      with
      | Some (pfn, perms) ->
          Tlb.fill c.Cpu.tlb ~vmid ~vp ~pfn ~perms;
          Some (pfn, perms)
      | None -> None)

(** A guest (or KServ, vmid 0) load: translated and permission-checked by
    the simulated hardware. *)
let access_read t ~cpu ~vmid ~addr : (int, access_fault) result =
  match translate_hw t ~cpu ~vmid ~addr with
  | None -> Error (Stage2_fault addr)
  | Some (pfn, perms) ->
      if not perms.Pte.readable then Error (Perm_fault addr)
      else
        Ok
          (Phys_mem.read t.mem ~pfn
             ~idx:(Page_table.page_offset addr / 8 mod Phys_mem.entries_per_page))

let access_write t ~cpu ~vmid ~addr v : (unit, access_fault) result =
  match translate_hw t ~cpu ~vmid ~addr with
  | None -> Error (Stage2_fault addr)
  | Some (pfn, perms) ->
      if not perms.Pte.writable then Error (Perm_fault addr)
      else begin
        Phys_mem.write t.mem ~pfn
          ~idx:(Page_table.page_offset addr / 8 mod Phys_mem.entries_per_page)
          v;
        Ok ()
      end

(* ------------------------------------------------------------------ *)
(* Stage-2 fault handling: ownership transfer                          *)
(* ------------------------------------------------------------------ *)

(** KServ proposes [pfn] to back guest address [ipa] of VM [vmid]. KCore
    validates ownership before accepting: the page must be {!donatable}
    and [ipa] unmapped. The page is scrubbed (runtime-granted pages
    carry no KServ-chosen content) and transferred. *)
let map_page_to_vm t ~cpu ~vmid ~ipa ~pfn : (unit, [ `Denied ]) result =
  t.hypercalls <- t.hypercalls + 1;
  t.s2_faults <- t.s2_faults + 1;
  with_vm t ~cpu vmid @@ fun vm ->
  (* validate before mutating anything: a denied donation leaves the
     system exactly as it was *)
  if torn_down vm || (not (donatable t pfn)) || Npt.is_mapped vm.npt ~ipa then
    Error `Denied
  else begin
    (match Npt.clear_s2pt t.kserv_npt ~cpu ~ipa:(Page_table.page_va pfn) with
    | Ok () -> S2page.decr_map t.s2page pfn
    | Error `Not_mapped -> ());
    Phys_mem.scrub t.mem pfn;
    S2page.set_owner t.s2page pfn (S2page.Vm vmid);
    match Npt.set_s2pt vm.npt ~cpu ~ipa ~pfn ~perms:Pte.rw with
    | Ok () ->
        S2page.incr_map t.s2page pfn;
        Ok ()
    | Error `Already_mapped -> assert false (* checked above, under the lock *)
  end

(** KServ faults on its own stage 2 (lazy 4 KB mappings, §6): KCore maps
    the page 1:1 iff KServ owns it. *)
let kserv_fault t ~cpu ~addr : (unit, [ `Denied ]) result =
  t.hypercalls <- t.hypercalls + 1;
  let pfn = Page_table.va_page addr in
  let owner = S2page.owner t.s2page pfn in
  if owner = S2page.Kserv || (S2page.is_shared t.s2page pfn) then
    match
      Npt.set_s2pt t.kserv_npt ~cpu ~ipa:(Page_table.page_va pfn) ~pfn
        ~perms:Pte.rw
    with
    | Ok () ->
        S2page.incr_map t.s2page pfn;
        Ok ()
    | Error `Already_mapped -> Ok ()
  else Error `Denied

(* ------------------------------------------------------------------ *)
(* Page sharing (paravirtual I/O)                                      *)
(* ------------------------------------------------------------------ *)

(** A VM grants KServ access to one of its pages (virtio rings/buffers). *)
let vm_share_page t ~cpu ~vmid ~ipa : (unit, [ `Denied ]) result =
  t.hypercalls <- t.hypercalls + 1;
  with_vm t ~cpu vmid @@ fun vm ->
  match vm_translate vm ~ipa with
  | None -> Error `Denied
  | Some (pfn, _) ->
      if S2page.owner t.s2page pfn <> S2page.Vm vmid then Error `Denied
      else begin
        S2page.set_shared t.s2page pfn true;
        (match
           Npt.set_s2pt t.kserv_npt ~cpu ~ipa:(Page_table.page_va pfn) ~pfn
             ~perms:Pte.rw
         with
        | Ok () -> S2page.incr_map t.s2page pfn
        | Error `Already_mapped -> ());
        Ok ()
      end

let vm_unshare_page t ~cpu ~vmid ~ipa : (unit, [ `Denied ]) result =
  t.hypercalls <- t.hypercalls + 1;
  with_vm t ~cpu vmid @@ fun vm ->
  match vm_translate vm ~ipa with
  | None -> Error `Denied
  | Some (pfn, _) ->
      if
        S2page.owner t.s2page pfn <> S2page.Vm vmid
        || not (S2page.is_shared t.s2page pfn)
      then Error `Denied
      else begin
        (match
           Npt.clear_s2pt t.kserv_npt ~cpu ~ipa:(Page_table.page_va pfn)
         with
        | Ok () -> S2page.decr_map t.s2page pfn
        | Error `Not_mapped -> ());
        S2page.set_shared t.s2page pfn false;
        Ok ()
      end

(** A VM write-protects one of its own pages (guest W^X): the mapping is
    remapped read-only — a clear (with its DSB + TLBI, per
    Sequential-TLB-Invalidation) followed by a set with the new
    permissions. Subsequent guest stores take a permission fault. *)
let vm_protect_page t ~cpu ~vmid ~ipa : (unit, [ `Denied ]) result =
  t.hypercalls <- t.hypercalls + 1;
  with_vm t ~cpu vmid @@ fun vm ->
  match vm_translate vm ~ipa with
  | None -> Error `Denied
  | Some (pfn, perms) ->
      if S2page.owner t.s2page pfn <> S2page.Vm vmid then Error `Denied
      else if not perms.Pte.writable then Ok () (* already protected *)
      else begin
        (match Npt.clear_s2pt vm.npt ~cpu ~ipa with
        | Ok () -> ()
        | Error `Not_mapped -> panic "vm_protect_page: mapping vanished");
        match Npt.set_s2pt vm.npt ~cpu ~ipa ~pfn ~perms:Pte.ro with
        | Ok () -> Ok ()
        | Error `Already_mapped -> panic "vm_protect_page: impossible remap"
      end

(* ------------------------------------------------------------------ *)
(* SMMU management                                                     *)
(* ------------------------------------------------------------------ *)

(** Attach [device] to [owner]: KServ, KCore, or a VM that is not torn
    down. A device stays attached until its owner VM is torn down. *)
let smmu_attach t ~cpu ~device ~owner : (unit, [ `Denied ]) result =
  t.hypercalls <- t.hypercalls + 1;
  let owner_live =
    match owner with
    | S2page.Vm vmid -> (
        match List.assoc_opt vmid t.vms with
        | Some vm -> not (torn_down vm)
        | None -> false)
    | S2page.Kserv | S2page.Kcore -> true
  in
  if List.mem_assoc device t.smmu_owners || not owner_live then Error `Denied
  else begin
    ignore (Smmu_ops.attach_device t.smmu_ops ~cpu ~device);
    t.smmu_owners <- (device, owner) :: t.smmu_owners;
    Ok ()
  end

let smmu_map t ~cpu ~device ~iova ~pfn : (unit, [ `Denied ]) result =
  t.hypercalls <- t.hypercalls + 1;
  match List.assoc_opt device t.smmu_owners with
  | None -> Error `Denied
  | Some owner ->
      if S2page.owner t.s2page pfn <> owner || owner = S2page.Kcore then
        Error `Denied
      else (
        match
          Smmu_ops.set_spt t.smmu_ops ~cpu ~device ~iova ~pfn ~perms:Pte.rw
        with
        | Ok () ->
            S2page.incr_map t.s2page pfn;
            Ok ()
        | Error (`Already_mapped | `No_device) -> Error `Denied)

let smmu_unmap t ~cpu ~device ~iova : (unit, [ `Denied ]) result =
  t.hypercalls <- t.hypercalls + 1;
  match Smmu_ops.translate t.smmu_ops ~device ~iova with
  | None -> Error `Denied
  | Some (pfn, _) -> (
      match Smmu_ops.clear_spt t.smmu_ops ~cpu ~device ~iova with
      | Ok () ->
          S2page.decr_map t.s2page pfn;
          Ok ()
      | Error (`Not_mapped | `No_device) -> Error `Denied)

(* ------------------------------------------------------------------ *)
(* VM teardown                                                         *)
(* ------------------------------------------------------------------ *)

(* [teardown_vm]'s work on a VM that is not yet torn down. *)
let reclaim t ~cpu vm =
  let vmid = vm.vmid in
  if List.exists (fun v -> v.Vcpu_ctxt.vstate = Vcpu_ctxt.Active) vm.vcpus
  then panic "teardown_vm: VM %d has active vCPUs" vmid;
  (* revoke DMA first: a device assigned to the dying VM must not keep a
     window into pages about to be scrubbed and returned to KServ *)
  List.iter
    (fun (device, owner) ->
      if owner = S2page.Vm vmid then begin
        List.iter
          (fun ext ->
            let iova = Page_table.page_va ext.Page_table.e_vp in
            match Smmu_ops.clear_spt t.smmu_ops ~cpu ~device ~iova with
            | Ok () -> S2page.decr_map t.s2page ext.Page_table.e_pfn
            | Error (`Not_mapped | `No_device) -> ())
          (match Smmu.root_of t.smmu_ops.Smmu_ops.smmu ~device with
          | Some root ->
              Page_table.extents t.mem
                t.smmu_ops.Smmu_ops.smmu.Smmu.geometry ~root
          | None -> []);
        Smmu_ops.detach_device t.smmu_ops ~cpu ~device
      end)
    t.smmu_owners;
  t.smmu_owners <-
    List.filter (fun (_, owner) -> owner <> S2page.Vm vmid) t.smmu_owners;
  List.iter
    (fun (vp, pfn, _) ->
      (match Npt.clear_s2pt vm.npt ~cpu ~ipa:(Page_table.page_va vp) with
      | Ok () -> S2page.decr_map t.s2page pfn
      | Error `Not_mapped -> ());
      (* drop any share into KServ *)
      if S2page.is_shared t.s2page pfn then begin
        (match
           Npt.clear_s2pt t.kserv_npt ~cpu ~ipa:(Page_table.page_va pfn)
         with
        | Ok () -> S2page.decr_map t.s2page pfn
        | Error `Not_mapped -> ());
        S2page.set_shared t.s2page pfn false
      end;
      Phys_mem.scrub t.mem pfn;
      S2page.set_owner t.s2page pfn S2page.Kserv)
    (Npt.mappings vm.npt);
  List.iter (Page_pool.free t.s2_pool)
    (Page_table.table_pages t.mem t.geometry ~root:vm.npt.Npt.root);
  vm.vstate <- Torn_down

(** Reclaim all memory of VM [vmid]: its devices are detached, every owned
    page is unmapped from the VM's stage 2, scrubbed, and returned to
    KServ, and the stage-2 tree's pages return to [s2_pool].
    Confidentiality across the VM's death depends on the scrub. Tearing
    down a torn-down VM, or one KCore never registered, does nothing. *)
let teardown_vm t ~cpu ~vmid =
  t.hypercalls <- t.hypercalls + 1;
  match List.assoc_opt vmid t.vms with
  | None -> ()
  | Some vm ->
      Ticket_lock.with_lock vm.vm_lock ~cpu @@ fun () ->
      if not (torn_down vm) then reclaim t ~cpu vm

(* ------------------------------------------------------------------ *)
(* Executable security invariants                                      *)
(* ------------------------------------------------------------------ *)

type invariant_violation = { inv : string; detail : string }

(* The checker is an oracle: every call re-derives what each stage-2 and
   SMMU table reaches from the live tables, and trusts none of KCore's
   own bookkeeping beyond the ownership database it checks against. Each
   tree is walked once ({!Page_table.iter_tree}), invariant 1 checked on
   its table pages and 2-5 and 7's tally on its leaves as the walk finds
   them. Reports collect in one buffer per invariant group, so the list
   keeps the group order (1 over every tree, 2-4 per stage-2 table, 5 per
   device, 6, 7 by frame).

   7's tally is sparse. [inv_counts] holds it, and [inv_touched] stacks
   each frame the first time the walk counts it; a call starts by
   clearing the slots the previous call stacked (that call may have
   raised part-way), so nothing survives from one call to the next. If
   every touched frame's tally equals its recorded count and those
   counts sum to the database's total, no other frame can hold a count
   (none is negative) and the full ascending diff is skipped. The total
   is a sum over the very counts under check, not KCore bookkeeping
   about tables. *)
let check_invariants t : invariant_violation list =
  let tables = ref [] and leaves = ref [] and rest = ref [] in
  let report buf inv fmt =
    Format.kasprintf (fun detail -> buf := { inv; detail } :: !buf) fmt
  in
  let owner pfn = S2page.owner t.s2page pfn in
  let counted = t.inv_counts and touched = t.inv_touched in
  for i = 0 to t.inv_n_touched - 1 do
    counted.(touched.(i)) <- 0
  done;
  t.inv_n_touched <- 0;
  (* 1. every page-table page (EL2, stage-2, SMMU) is KCore-owned *)
  let table pfn =
    match owner pfn with
    | S2page.Kcore -> ()
    | o ->
        report tables "table-pages-kcore-owned" "table page %d owned by %s"
          pfn (S2page.show_owner o)
  in
  (* [check vp pfn owner] on every frame a stage-2 or SMMU leaf reaches,
     which is then tallied (the owner lookup range-checked it) *)
  let walk mem g ~root check =
    Page_table.iter_tree mem g ~root ~table
      ~leaf:(fun vp out _ level ->
        for k = 0 to Page_table.block_pages ~level - 1 do
          let pfn = out + k in
          check (vp + k) pfn (owner pfn);
          let c = counted.(pfn) in
          if c = 0 then begin
            touched.(t.inv_n_touched) <- pfn;
            t.inv_n_touched <- t.inv_n_touched + 1
          end;
          counted.(pfn) <- c + 1
        done)
      ()
  in
  Page_table.iter_tree t.mem t.el2.El2_pt.geometry ~root:t.el2.El2_pt.root
    ~table ();
  (* 2. no KCore-owned page is mapped in any stage-2 table *)
  let check_npt vmid (npt : Npt.t) allowed =
    let label () =
      if vmid = kserv_vmid then "kserv-s2" else Printf.sprintf "vm-%d-s2" vmid
    in
    walk npt.Npt.mem npt.Npt.geometry ~root:npt.Npt.root (fun vp pfn o ->
        match o with
        | S2page.Kcore ->
            report leaves "no-kcore-page-mapped"
              "%s maps vp %d -> KCore page %d" (label ()) vp pfn
        | o ->
            if not (allowed pfn o) then
              report leaves "owner-consistent"
                "%s maps vp %d -> page %d owned by %s" (label ()) vp pfn
                (S2page.show_owner o))
  in
  (* 3. KServ's stage 2 maps only KServ pages or shared VM pages *)
  check_npt kserv_vmid t.kserv_npt (fun pfn o ->
      match o with
      | S2page.Kserv -> true
      | S2page.Kcore | S2page.Vm _ -> S2page.is_shared t.s2page pfn);
  (* 4. a VM's stage 2 maps only its own pages (a torn-down VM has no
     tree left; a leaf its teardown missed shows in 7's counts) *)
  List.iter
    (fun (vmid, vm) ->
      if not (torn_down vm) then
        check_npt vmid vm.npt (fun _ o ->
            match o with
            | S2page.Vm v -> v = vmid
            | S2page.Kcore | S2page.Kserv -> false))
    t.vms;
  (* 5. every attached device has an owner, and SMMU tables map only pages
     of the device's owner; an ownerless device has its table pages
     checked, not its leaves. [smmu_owners] lists devices in [contexts]
     order (attach adds to both, teardown removes from both), so walking
     [contexts] reports devices in the order the owners are listed. *)
  let smmu = t.smmu_ops.Smmu_ops.smmu in
  List.iter
    (fun (device, root) ->
      match List.assoc_opt device t.smmu_owners with
      | None ->
          report leaves "smmu-context-owned"
            "device %d is attached with no owner" device;
          Page_table.iter_tree smmu.Smmu.mem smmu.Smmu.geometry ~root ~table ()
      | Some dev_owner ->
          walk smmu.Smmu.mem smmu.Smmu.geometry ~root (fun _ pfn o ->
              match o with
              | S2page.Kcore ->
                  report leaves "no-kcore-page-dma"
                    "device %d can DMA to KCore page %d" device pfn
              | o ->
                  if not (S2page.equal_owner o dev_owner) then
                    report leaves "smmu-owner-consistent"
                      "device %d (owner %s) can DMA to page %d owned by %s"
                      device
                      (S2page.show_owner dev_owner)
                      pfn (S2page.show_owner o)))
    smmu.Smmu.contexts;
  (* 6. the SMMU stays enabled *)
  if not smmu.Smmu.enabled then
    report rest "smmu-enabled" "SMMU has been disabled";
  (* 7. the ownership database's reference counts agree with the actual
     number of stage-2 + SMMU mappings of each frame *)
  let agree = ref true and sum = ref 0 in
  for i = 0 to t.inv_n_touched - 1 do
    let pfn = touched.(i) in
    let recorded = S2page.map_count t.s2page pfn in
    sum := !sum + recorded;
    if recorded <> counted.(pfn) then agree := false
  done;
  if not (!agree && !sum = S2page.total_map_count t.s2page) then
    S2page.diff_map_counts t.s2page counted (fun pfn recorded ->
        report rest "map-count-consistent"
          "page %d: map_count %d but %d actual mappings" pfn recorded
          counted.(pfn));
  List.rev !tables @ List.rev !leaves @ List.rev !rest

(* ------------------------------------------------------------------ *)
(* VM snapshots (paper §4.3)                                           *)
(* ------------------------------------------------------------------ *)

(** Create a snapshot of VM [vmid]: KCore reads every guest page through
    its EL2 linear map and hands (vp, digest) pairs to the caller (KServ
    persists them). This is the paper's motivating example for weakening
    Memory-Isolation: the hypervisor {e does} read VM memory here, so the
    strong condition cannot hold; the reads are oracle-mediated, which is
    exactly what the weak condition requires. *)
let snapshot_vm t ~cpu ~vmid : (int * int) list =
  t.hypercalls <- t.hypercalls + 1;
  let vm = find_vm t vmid in
  Ticket_lock.with_lock vm.vm_lock ~cpu @@ fun () ->
  List.map
    (fun (vp, pfn, _) ->
      Trace.record t.trace (Trace.E_oracle_read { cpu; pfn });
      (vp, Phys_mem.digest_page t.mem pfn))
    (vm_mappings vm)

(* ------------------------------------------------------------------ *)
(* Virtual interrupts and MMIO emulation                               *)
(* ------------------------------------------------------------------ *)

(** Guest-physical MMIO window: one page of in-kernel-emulated interrupt
    controller (the vGIC distributor) and one page of userspace-emulated
    UART. Accesses here never hit stage 2; they trap and are routed to
    the emulation, mirroring Table 2's "I/O Kernel" vs "I/O User" split. *)
let gic_dist_page = 768

let uart_page = 769

let is_mmio ~addr =
  let vp = Page_table.va_page addr in
  vp = gic_dist_page || vp = uart_page

(** A guest SGI (virtual IPI): sets the interrupt pending at the target
    vCPU and, if that vCPU is running on some physical CPU, delivers a
    physical IPI to it. Emulated in kernel space. *)
let vgic_send_sgi t ~cpu ~vmid ~to_vcpu ~irq : (unit, [ `Denied ]) result =
  ignore cpu;
  t.hypercalls <- t.hypercalls + 1;
  t.vipis <- t.vipis + 1;
  t.mmio_kernel <- t.mmio_kernel + 1;
  match List.assoc_opt vmid t.vms with
  | Some vm
    when (not (torn_down vm))
         && List.exists (fun v -> v.Vcpu_ctxt.vcpuid = to_vcpu) vm.vcpus ->
      Vgic.inject vm.vgic ~vcpuid:to_vcpu ~irq;
      Ok ()
  | _ -> Error `Denied

(** Take the next pending interrupt of a vCPU (the guest's IAR read). *)
let vgic_ack t ~vmid ~vcpuid : int option =
  t.mmio_kernel <- t.mmio_kernel + 1;
  Vgic.take (find_vm t vmid).vgic ~vcpuid

let vgic_pending t ~vmid ~vcpuid =
  Vgic.pending (find_vm t vmid).vgic ~vcpuid

(** UART emulation lives in host userspace: the access costs a full exit
    to the VMM. The routed byte is returned to the caller (KServ), which
    owns the UART buffer. *)
let uart_exit t ~cpu ~value : int =
  ignore cpu;
  t.hypercalls <- t.hypercalls + 1;
  t.mmio_user <- t.mmio_user + 1;
  value

(** A guest UART {e read}: the value comes from the outside world through
    untrusted emulation, so KCore models it as a data-oracle draw — the
    same device on the same schedule yields the same bytes across runs,
    and the proofs never depend on what the bytes are. *)
let uart_read t ~cpu : int =
  ignore cpu;
  t.hypercalls <- t.hypercalls + 1;
  t.mmio_user <- t.mmio_user + 1;
  Data_oracle.draw t.oracle land 0x7f

(* ------------------------------------------------------------------ *)
(* VM migration (export/import)                                        *)
(* ------------------------------------------------------------------ *)

(** Export VM [vmid]'s memory for migration: (vp, words) pairs read by
    KCore through its linear map. On real SeKVM the pages are encrypted
    before KServ may carry them; here the oracle-mediated read marks the
    information flow the proofs must account for, exactly as with
    snapshots. *)
let export_vm t ~cpu ~vmid : (int * int array) list =
  t.hypercalls <- t.hypercalls + 1;
  let vm = find_vm t vmid in
  Ticket_lock.with_lock vm.vm_lock ~cpu @@ fun () ->
  List.map
    (fun (vp, pfn, _) ->
      Trace.record t.trace (Trace.E_oracle_read { cpu; pfn });
      ( vp,
        Array.init Phys_mem.entries_per_page (fun i ->
            Phys_mem.read t.mem ~pfn ~idx:i) ))
    (vm_mappings vm)

(** Import an exported VM on this host: a fresh VM is registered, KServ
    donates one page per exported page, KCore fills it (before the
    ownership transfer the content flows through KServ-owned memory, as
    on a real migration), and the pages are mapped at their original
    guest addresses. Returns the new vmid. *)
let import_vm t ~cpu ~pages ~donate ~n_vcpus : int =
  let vmid = register_vm t ~cpu in
  for v = 0 to n_vcpus - 1 do
    register_vcpu t ~cpu ~vmid ~vcpuid:v
  done;
  let vm = find_vm t vmid in
  List.iter
    (fun (vp, words) ->
      let pfn = donate () in
      if not (donatable t pfn) then
        panic "import_vm: donated page %d is not KServ's alone" pfn;
      (match Npt.clear_s2pt t.kserv_npt ~cpu ~ipa:(Page_table.page_va pfn) with
      | Ok () -> S2page.decr_map t.s2page pfn
      | Error `Not_mapped -> ());
      Array.iteri (fun i w -> Phys_mem.write t.mem ~pfn ~idx:i w) words;
      S2page.set_owner t.s2page pfn (S2page.Vm vmid);
      match
        Npt.set_s2pt vm.npt ~cpu ~ipa:(Page_table.page_va vp) ~pfn
          ~perms:Pte.rw
      with
      | Ok () -> S2page.incr_map t.s2page pfn
      | Error `Already_mapped -> panic "import_vm: duplicate vp")
    pages;
  vm.vstate <- Verified;
  vm.image_hash <- Some 0;
  vmid
