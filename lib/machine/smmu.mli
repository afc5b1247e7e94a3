(** SMMU: the I/O MMU protecting DMA (paper §5.3–5.5). Each DMA-capable
    device is attached to a context bank with its own page table; DMA goes
    through {!translate} (SMMU TLB, then a walk). KCore owns the
    page-table pages and is the only writer. *)

type t = {
  mem : Phys_mem.t;
  geometry : Page_table.geometry;
  pool : Page_pool.t;
  tlb : Tlb.t;  (** SMMU TLB, tagged by device id *)
  mutable contexts : (int * int) list;  (** device id -> root table pfn *)
  mutable enabled : bool;
      (** the configuration invariant: KCore never lets this become
          [false]; a disabled SMMU means raw physical DMA *)
}

val create :
  mem:Phys_mem.t -> geometry:Page_table.geometry -> pool:Page_pool.t ->
  tlb_capacity:int -> t

val attach_device : t -> device:int -> int
(** Allocate a context bank; returns the root table pfn. Raises
    [Invalid_argument] if already attached. *)

val detach_device : t -> device:int -> unit
(** Release the context bank: drop the device's TLB entries and return
    every table page to the pool. The caller clears the leaves first (and
    their map counts); a device with no context is left alone. *)

val root_of : t -> device:int -> int option
val is_attached : t -> device:int -> bool

val translate : t -> device:int -> iova:int -> (int * Pte.perms) option
(** DMA translation as the SMMU hardware performs it; [None] = fault
    (unattached device or unmapped IOVA). When [enabled] is false, DMA
    bypasses translation — the state the invariants forbid. *)

val invalidate_tlb_va : t -> device:int -> iova:int -> unit

val reachable_pfns : t -> device:int -> int list
(** All frames reachable by DMA from [device] — for isolation invariants. *)
