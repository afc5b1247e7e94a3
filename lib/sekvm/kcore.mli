(** KCore: the trusted core of the retrofitted KVM hypervisor (paper §5).

    KCore runs at EL2, owns every page table (its EL2 table, stage-2
    tables for KServ and each VM, SMMU tables) and the page ownership
    database. KServ and VMs interact with it exclusively through the
    hypercall surface below. The security content mirrors the paper: no
    KCore page is ever reachable through a stage-2 or SMMU table, a page
    has one owner, and KServ reaches a VM page only while explicitly
    shared — all checked executably by {!check_invariants}. *)

open Machine

exception Kcore_panic of string

val panic : ('a, Format.formatter, unit, 'b) format4 -> 'a

type vm_state = Registered | Verified | Torn_down

val pp_vm_state : Format.formatter -> vm_state -> unit
val show_vm_state : vm_state -> string
val equal_vm_state : vm_state -> vm_state -> bool

type vm = {
  vmid : int;
  mutable vstate : vm_state;
  npt : Npt.t;
  mutable vcpus : Vcpu_ctxt.t list;
  mutable image_hash : int option;
  vm_lock : Ticket_lock.t;
  mutable next_image_ipa : int;
  vgic : Vgic.t;
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
  mutable smmu_owners : (int * S2page.owner) list;
  inv_counts : int array;
      (** {!check_invariants}' per-frame mapping tally. Only the frames in
          [inv_touched] can be non-zero, and each call clears them first,
          so the tally carries nothing from one call to the next. *)
  inv_touched : int array;
      (** the first [inv_n_touched] entries: each frame the last call
          counted, once *)
  mutable inv_n_touched : int;
  mutable hypercalls : int;
  mutable s2_faults : int;
  mutable vipis : int;
  mutable mmio_kernel : int;
  mutable mmio_user : int;
}

val kserv_vmid : int

(** {2 Boot} *)

type boot_config = {
  n_pages : int;
  n_cpus : int;
  tlb_capacity : int;
  stage2_geometry : Page_table.geometry;
  max_vms : int;
  el2_pool_pages : int;
  s2_pool_pages : int;
  smmu_pool_pages : int;
  kcore_static_pages : int;
  oracle_seed : int;
}

val default_boot_config : boot_config

val kserv_base : boot_config -> int
(** First frame KServ owns; everything below is KCore's. *)

val boot : boot_config -> t
val invalidate_tlbs : t -> Trace.tlbi_scope -> unit

(** {2 VM lifecycle} *)

val find_vm : t -> int -> vm
val gen_vmid : t -> cpu:int -> int
(** The [gen_vmid] of Fig. 1, under the core lock; panics at [max_vms]. *)

val register_vm : t -> cpu:int -> int
val register_vcpu : t -> cpu:int -> vmid:int -> vcpuid:int -> unit
val find_vcpu : vm -> int -> Vcpu_ctxt.t

val set_vm_image :
  t -> cpu:int -> vmid:int -> pfns:int list -> expected_hash:int ->
  (unit, [ `Bad_hash | `Denied ]) result
(** Authenticated boot (§5.1): withdraw the image pages from KServ, hash
    them through the EL2 remap region, and on success transfer them to
    the VM at consecutive guest addresses. [Denied] unless every page is
    KServ's alone: owned, unshared, and mapped by nothing but KServ's own
    stage 2 (no VM and no SMMU mapping). *)

val teardown_vm : t -> cpu:int -> vmid:int -> unit
(** Detach the VM's devices; unmap, scrub, and return every VM page to
    KServ; return the stage-2 tree's pages to [s2_pool]. The VM record
    stays, [Torn_down]: every later call naming it is denied (or, for
    [teardown_vm] itself, does nothing), and nothing walks its tree. *)

val vm_mappings : vm -> (int * int * Pte.perms) list
(** The VM's stage-2 (guest page, frame, perms) mappings; none once the
    VM is torn down. *)

(** {2 Running vCPUs} *)

val vcpu_load : t -> cpu:int -> vmid:int -> vcpuid:int -> unit
val vcpu_put : t -> cpu:int -> unit

(** {2 Memory access through stage 2} *)

type access_fault = Stage2_fault of int | Perm_fault of int

val pp_access_fault : Format.formatter -> access_fault -> unit
val show_access_fault : access_fault -> string
val equal_access_fault : access_fault -> access_fault -> bool

val translate_hw : t -> cpu:int -> vmid:int -> addr:int -> (int * Pte.perms) option
val access_read : t -> cpu:int -> vmid:int -> addr:int -> (int, access_fault) result
val access_write : t -> cpu:int -> vmid:int -> addr:int -> int -> (unit, access_fault) result

(** {2 Faults, donation, sharing} *)

val map_page_to_vm :
  t -> cpu:int -> vmid:int -> ipa:int -> pfn:int -> (unit, [ `Denied ]) result
(** Stage-2 fault resolution: validate KServ's donation (the same
    KServ's-alone precondition as {!set_vm_image}, and [ipa] unmapped),
    withdraw it from KServ, scrub,
    transfer, map. Check-then-act: a denial leaves the system unchanged. *)

val kserv_fault : t -> cpu:int -> addr:int -> (unit, [ `Denied ]) result
val vm_share_page : t -> cpu:int -> vmid:int -> ipa:int -> (unit, [ `Denied ]) result
val vm_unshare_page : t -> cpu:int -> vmid:int -> ipa:int -> (unit, [ `Denied ]) result

val vm_protect_page : t -> cpu:int -> vmid:int -> ipa:int -> (unit, [ `Denied ]) result
(** Remap one of the VM's own pages read-only (guest W^X): clear + DSB +
    TLBI + set, per the Sequential-TLB-Invalidation discipline. *)

(** {2 SMMU} *)

val smmu_attach : t -> cpu:int -> device:int -> owner:S2page.owner -> (unit, [ `Denied ]) result
(** [Denied] if the device is attached, or the owner is a VM that is
    unknown or torn down. Teardown detaches a VM's devices and returns
    their table pages to [smmu_pool]. *)
val smmu_map : t -> cpu:int -> device:int -> iova:int -> pfn:int -> (unit, [ `Denied ]) result
val smmu_unmap : t -> cpu:int -> device:int -> iova:int -> (unit, [ `Denied ]) result

(** {2 Snapshots and migration} *)

val snapshot_vm : t -> cpu:int -> vmid:int -> (int * int) list
(** (guest page, digest) pairs; the reads are oracle-mediated — the §4.3
    reason the strong Memory-Isolation condition is weakened. *)

val export_vm : t -> cpu:int -> vmid:int -> (int * int array) list
val import_vm :
  t -> cpu:int -> pages:(int * int array) list -> donate:(unit -> int) ->
  n_vcpus:int -> int
(** Register a VM and fill it with [pages] (guest page, contents), each on
    a page from [donate]. Panics if a donated page is not KServ's alone
    (see {!set_vm_image}). Returns the new vmid. *)

(** {2 Virtual interrupts and MMIO emulation} *)

val gic_dist_page : int
val uart_page : int
val is_mmio : addr:int -> bool
val vgic_send_sgi : t -> cpu:int -> vmid:int -> to_vcpu:int -> irq:int -> (unit, [ `Denied ]) result
val vgic_ack : t -> vmid:int -> vcpuid:int -> int option
val vgic_pending : t -> vmid:int -> vcpuid:int -> int
val uart_exit : t -> cpu:int -> value:int -> int

val uart_read : t -> cpu:int -> int
(** Guest UART input, modeled as a data-oracle draw: deterministic per
    seed, and the kernel's behavior never depends on the value. *)

(** {2 Executable security invariants} *)

type invariant_violation = { inv : string; detail : string }

val check_invariants : t -> invariant_violation list
(** §5.3's invariants, re-derived on every call from the live tables: all
    table pages KCore-owned; no KCore page mapped anywhere; KServ reaches
    only its own or shared pages; VMs only their own; every attached
    device has an owner and its SMMU table respects it; SMMU enabled; map
    counts match the tables. A torn-down VM has no tree to walk. *)
