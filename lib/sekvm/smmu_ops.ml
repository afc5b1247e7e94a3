(** SMMU page-table primitives [set_spt]/[clear_spt] (paper §5.4-5.5).

    These mirror [set_s2pt]/[clear_s2pt] exactly, except pages come from
    the SMMU's reserved pool and invalidations target the SMMU TLB. *)

open Machine

type t = {
  smmu : Smmu.t;
  lock : Ticket_lock.t;
  trace : Trace.t;
  mutable map_ops : int;
  mutable unmap_ops : int;
}

let create ~smmu ~trace =
  { smmu; lock = Ticket_lock.create "smmu"; trace; map_ops = 0; unmap_ops = 0 }

let record_write t ~cpu ~device w =
  Trace.record t.trace
    (Trace.E_pt_write
       { cpu;
         table = Trace.T_smmu device;
         write = w;
         locked = Ticket_lock.is_held t.lock })

let section t ~cpu ~what f =
  Trace.record t.trace (Trace.E_section_begin { cpu; what });
  let r = f () in
  Trace.record t.trace (Trace.E_section_end { cpu; what });
  r

let attach_device t ~cpu ~device =
  ignore cpu;
  Ticket_lock.with_lock t.lock ~cpu @@ fun () ->
  Smmu.attach_device t.smmu ~device

let detach_device t ~cpu ~device =
  Ticket_lock.with_lock t.lock ~cpu @@ fun () ->
  Smmu.detach_device t.smmu ~device

let set_spt t ~cpu ~device ~iova ~pfn ~perms :
    (unit, [ `Already_mapped | `No_device ]) result =
  section t ~cpu ~what:"set_spt" @@ fun () ->
  Ticket_lock.with_lock t.lock ~cpu @@ fun () ->
  match Smmu.root_of t.smmu ~device with
  | None -> Error `No_device
  | Some root -> (
      match
        Page_table.plan_map t.smmu.Smmu.mem t.smmu.Smmu.geometry
          ~pool:t.smmu.Smmu.pool ~root ~va:iova ~target_pfn:pfn ~perms
      with
      | Ok writes ->
          List.iter
            (fun w ->
              Page_table.apply_write t.smmu.Smmu.mem w;
              record_write t ~cpu ~device w)
            writes;
          t.map_ops <- t.map_ops + 1;
          Ok ()
      | Error `Already_mapped -> Error `Already_mapped)

let clear_spt ?(skip_barrier = false) ?(skip_tlbi = false) t ~cpu ~device
    ~iova : (unit, [ `Not_mapped | `No_device ]) result =
  section t ~cpu ~what:"clear_spt" @@ fun () ->
  Ticket_lock.with_lock t.lock ~cpu @@ fun () ->
  match Smmu.root_of t.smmu ~device with
  | None -> Error `No_device
  | Some root -> (
      match
        Page_table.plan_unmap t.smmu.Smmu.mem t.smmu.Smmu.geometry ~root
          ~va:iova
      with
      | None -> Error `Not_mapped
      | Some w ->
          Page_table.apply_write t.smmu.Smmu.mem w;
          record_write t ~cpu ~device w;
          if not skip_barrier then Trace.record t.trace (Trace.E_dsb cpu);
          if not skip_tlbi then begin
            Trace.record t.trace
              (Trace.E_tlbi { cpu; scope = Trace.Tlbi_smmu_dev device });
            Smmu.invalidate_tlb_va t.smmu ~device ~iova
          end;
          t.unmap_ops <- t.unmap_ops + 1;
          Ok ())

let translate t ~device ~iova = Smmu.translate t.smmu ~device ~iova
