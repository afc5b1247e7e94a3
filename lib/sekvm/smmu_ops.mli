(** SMMU page-table primitives [set_spt]/[clear_spt] (paper §5.4–5.5) —
    mirrors {!Npt} with pages from the SMMU pool and SMMU TLB
    invalidations. *)

open Machine

type t = {
  smmu : Smmu.t;
  lock : Ticket_lock.t;
  trace : Trace.t;
  mutable map_ops : int;
  mutable unmap_ops : int;
}

val create : smmu:Smmu.t -> trace:Trace.t -> t
val attach_device : t -> cpu:int -> device:int -> int

val detach_device : t -> cpu:int -> device:int -> unit
(** {!Smmu.detach_device} under the SMMU lock. *)

val set_spt :
  t -> cpu:int -> device:int -> iova:int -> pfn:int -> perms:Pte.perms ->
  (unit, [ `Already_mapped | `No_device ]) result

val clear_spt :
  ?skip_barrier:bool -> ?skip_tlbi:bool -> t -> cpu:int -> device:int ->
  iova:int -> (unit, [ `Not_mapped | `No_device ]) result

val translate : t -> device:int -> iova:int -> (int * Pte.perms) option
