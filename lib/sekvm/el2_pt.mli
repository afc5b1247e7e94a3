(** KCore's own EL2 stage-1 page table (paper §5.1): a boot-time linear
    map of all physical memory plus a bump-allocated remap region for
    image hashing. The single write primitive never overwrites a valid
    entry — Write-Once-Kernel-Mapping by construction, re-verified by the
    trace checker. *)

open Machine

type t = {
  mem : Phys_mem.t;
  geometry : Page_table.geometry;
  pool : Page_pool.t;
  root : int;
  trace : Trace.t;
  linear_pages : int;  (** the linear map covers virtual pages [0, n) *)
  mutable next_remap_vp : int;
}

exception Write_once_violation of { va_page : int }

val create :
  mem:Phys_mem.t -> geometry:Page_table.geometry -> pool:Page_pool.t ->
  trace:Trace.t -> cpu:int -> t
(** Boot: build the 1:1 linear map over all of physical memory, one
    [set_el2_pt] run. *)

val remap_region_start : t -> int

val set_el2_pt :
  ?force:bool -> ?pages:int -> t -> cpu:int -> va:int -> pfn:int ->
  perms:Pte.perms -> (unit, [ `Already_mapped ]) result
(** The only EL2 page-table write primitive: maps [pages] (default 1)
    consecutive pages from [va] to consecutive frames from [pfn] through
    {!Page_table.plan_map}, recording every write. It refuses the whole
    run, writing nothing, if any of its entries is already valid. [force]
    exists solely so tests can seed a Write-Once violation for the
    checker to catch: a refused call then overwrites [va]'s own entry. *)

val remap_pfn : t -> cpu:int -> pfn:int -> int
(** Map [pfn] read-only at the next free remap-region page; returns the
    virtual address. Never unmaps or remaps (§5.1). *)

val translate : t -> va:int -> (int * Pte.perms) option
