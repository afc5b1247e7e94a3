(** Stage-2 (nested) page tables for VMs and KServ (paper §5.4–5.5).

    Exactly two primitives mutate a table: [set_s2pt] (walk–allocate–set
    under the table lock, never overwriting a valid leaf, so no TLBI
    needed) and [clear_s2pt] (single leaf write, then DSB, then TLBI).
    Every write/barrier/TLBI is trace-recorded for the condition checkers;
    the [skip_*] knobs and [remap_nontransactional] exist only to seed
    the bugs the checkers must catch. *)

open Machine

type t = {
  mem : Phys_mem.t;
  geometry : Page_table.geometry;
  pool : Page_pool.t;
  root : int;
  vmid : int;
  lock : Ticket_lock.t;
  trace : Trace.t;
  invalidate : Trace.tlbi_scope -> unit;
  mutable map_ops : int;
  mutable unmap_ops : int;
}

val create :
  mem:Phys_mem.t -> geometry:Page_table.geometry -> pool:Page_pool.t ->
  vmid:int -> trace:Trace.t -> invalidate:(Trace.tlbi_scope -> unit) -> t

val set_s2pt :
  t -> cpu:int -> ipa:int -> pfn:int -> perms:Pte.perms ->
  (unit, [ `Already_mapped ]) result

val set_s2pt_block :
  t -> cpu:int -> ipa:int -> pfn:int -> perms:Pte.perms -> level:int ->
  (unit, [ `Already_mapped | `Misaligned ]) result
(** Huge-page mapping: one block PTE at [level] (1 = 2 MB). *)

val clear_s2pt :
  ?skip_barrier:bool -> ?skip_tlbi:bool -> t -> cpu:int -> ipa:int ->
  (unit, [ `Not_mapped ]) result

val remap_nontransactional :
  t -> cpu:int -> ipa:int -> pfn:int -> perms:Pte.perms ->
  (unit, [ `Not_mapped ]) result
(** The Example 5 anti-pattern (for checker validation only). *)

val translate : t -> ipa:int -> (int * Pte.perms) option
val mappings : t -> (int * int * Pte.perms) list
val is_mapped : t -> ipa:int -> bool
