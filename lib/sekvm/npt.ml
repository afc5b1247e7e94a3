(** Stage-2 (nested) page tables for VMs and KServ (paper §5.4-5.5).

    Exactly two primitives write a stage-2 table:

    - [set_s2pt] establishes a new mapping, walking from the root and
      allocating missing intermediate tables from KCore's private pool
      (the walk–allocate–set procedure, all inside the table's lock). It
      never overwrites a valid leaf, so no TLB invalidation is needed.
    - [clear_s2pt] clears an existing leaf (a single write), then issues a
      DSB barrier followed by a TLB invalidation for the unmapped address.
      Tables are never reclaimed or substituted once inserted.

    Every write/barrier/TLBI is recorded in the trace; the transactional
    and TLBI checkers judge those traces. The [~skip_barrier] /
    [~skip_tlbi] knobs and [remap_nontransactional] exist only to seed the
    bugs the checkers must catch (Examples 5 and 6). *)

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
      (** broadcast TLBI into the machine's TLBs *)
  mutable map_ops : int;
  mutable unmap_ops : int;
}

let create ~mem ~geometry ~pool ~vmid ~trace ~invalidate =
  { mem;
    geometry;
    pool;
    root = Page_pool.alloc pool;
    vmid;
    lock = Ticket_lock.create (Printf.sprintf "npt-%d" vmid);
    trace;
    invalidate;
    map_ops = 0;
    unmap_ops = 0 }

let record_write t ~cpu w =
  Trace.record t.trace
    (Trace.E_pt_write
       { cpu;
         table = Trace.T_stage2 t.vmid;
         write = w;
         locked = Ticket_lock.is_held t.lock })

let section t ~cpu ~what f =
  Trace.record t.trace (Trace.E_section_begin { cpu; what });
  let r = f () in
  Trace.record t.trace (Trace.E_section_end { cpu; what });
  r

(** Map [ipa -> pfn]. Fails (without writing) if [ipa] is already mapped:
    stage-2 mappings are changed only through clear-then-set, never
    overwritten in place. *)
let set_s2pt t ~cpu ~ipa ~pfn ~perms : (unit, [ `Already_mapped ]) result =
  section t ~cpu ~what:"set_s2pt" @@ fun () ->
  Ticket_lock.with_lock t.lock ~cpu @@ fun () ->
  match
    Page_table.plan_map t.mem t.geometry ~pool:t.pool ~root:t.root ~va:ipa
      ~target_pfn:pfn ~perms
  with
  | Ok writes ->
      List.iter
        (fun w ->
          Page_table.apply_write t.mem w;
          record_write t ~cpu w)
        writes;
      t.map_ops <- t.map_ops + 1;
      Ok ()
  | Error `Already_mapped -> Error `Already_mapped

(** Map a 2 MB (or larger) block: [ipa -> pfn] as a single block PTE at
    [level]. Like [set_s2pt] it only ever fills an empty entry, so no TLB
    invalidation is needed; the whole walk-allocate-set runs under the
    table lock. Huge stage-2 mappings for VMs are the paper's §6
    explanation for why guest-side TLB pressure stays low even on the
    m400. *)
let set_s2pt_block t ~cpu ~ipa ~pfn ~perms ~level :
    (unit, [ `Already_mapped | `Misaligned ]) result =
  section t ~cpu ~what:"set_s2pt_block" @@ fun () ->
  Ticket_lock.with_lock t.lock ~cpu @@ fun () ->
  match
    Page_table.plan_map_block t.mem t.geometry ~pool:t.pool ~root:t.root
      ~va:ipa ~target_pfn:pfn ~perms ~level
  with
  | Ok writes ->
      List.iter
        (fun w ->
          Page_table.apply_write t.mem w;
          record_write t ~cpu w)
        writes;
      t.map_ops <- t.map_ops + 1;
      Ok ()
  | Error (`Already_mapped | `Misaligned) as e -> e

(** Unmap [ipa]: one leaf write, then DSB, then TLBI for the page. *)
let clear_s2pt ?(skip_barrier = false) ?(skip_tlbi = false) t ~cpu ~ipa :
    (unit, [ `Not_mapped ]) result =
  section t ~cpu ~what:"clear_s2pt" @@ fun () ->
  Ticket_lock.with_lock t.lock ~cpu @@ fun () ->
  match Page_table.plan_unmap t.mem t.geometry ~root:t.root ~va:ipa with
  | None -> Error `Not_mapped
  | Some w ->
      Page_table.apply_write t.mem w;
      record_write t ~cpu w;
      if not skip_barrier then Trace.record t.trace (Trace.E_dsb cpu);
      if not skip_tlbi then begin
        let scope = Trace.Tlbi_va (t.vmid, Page_table.va_page ipa) in
        Trace.record t.trace (Trace.E_tlbi { cpu; scope });
        t.invalidate scope
      end;
      t.unmap_ops <- t.unmap_ops + 1;
      Ok ()

(** The Example 5 anti-pattern: replace a mapping by clearing an
    intermediate table entry and installing a new leaf in one critical
    section, with no intervening barrier/TLBI. Deliberately violates the
    Transactional-Page-Table condition; used to validate the checker. *)
let remap_nontransactional t ~cpu ~ipa ~pfn ~perms :
    (unit, [ `Not_mapped ]) result =
  section t ~cpu ~what:"remap_nontransactional" @@ fun () ->
  Ticket_lock.with_lock t.lock ~cpu @@ fun () ->
  match Page_table.plan_unmap t.mem t.geometry ~root:t.root ~va:ipa with
  | None -> Error `Not_mapped
  | Some w_unmap ->
      Page_table.apply_write t.mem w_unmap;
      record_write t ~cpu w_unmap;
      (match
         Page_table.plan_map t.mem t.geometry ~pool:t.pool ~root:t.root
           ~va:ipa ~target_pfn:pfn ~perms
       with
      | Ok writes ->
          List.iter
            (fun w ->
              Page_table.apply_write t.mem w;
              record_write t ~cpu w)
            writes
      | Error `Already_mapped -> assert false);
      Ok ()

(** Stage-2 translation as used by the software paths. *)
let translate t ~ipa =
  match Page_table.walk t.mem t.geometry ~root:t.root ipa with
  | Page_table.Mapped (pfn, perms) -> Some (pfn, perms)
  | Page_table.Fault _ -> None

let mappings t = Page_table.mappings t.mem t.geometry ~root:t.root
let is_mapped t ~ipa = translate t ~ipa <> None
