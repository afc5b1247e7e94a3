(** SMMU: the I/O MMU protecting DMA (paper §5.3-5.5).

    Each DMA-capable device is attached to a context bank with its own page
    table; device DMA goes through [translate], which consults the SMMU TLB
    and walks the device's table on a miss. KCore owns the page-table pages
    (allocated from a dedicated pool) and is the only writer. *)

type t = {
  mem : Phys_mem.t;
  geometry : Page_table.geometry;
  pool : Page_pool.t;
  tlb : Tlb.t;  (** SMMU TLB, tagged by device id *)
  mutable contexts : (int * int) list;  (** device id -> root table pfn *)
  mutable enabled : bool;
}

let create ~mem ~geometry ~pool ~tlb_capacity =
  { mem; geometry; pool; tlb = Tlb.create ~capacity:tlb_capacity;
    contexts = []; enabled = true }

let attach_device t ~device =
  if List.mem_assoc device t.contexts then
    invalid_arg "Smmu.attach_device: already attached"
  else begin
    let root = Page_pool.alloc t.pool in
    t.contexts <- (device, root) :: t.contexts;
    root
  end

let root_of t ~device = List.assoc_opt device t.contexts

(** Release [device]'s context bank: its TLB entries are dropped and every
    table page returns to the pool. The caller has cleared the leaves. *)
let detach_device t ~device =
  match root_of t ~device with
  | None -> ()
  | Some root ->
      Tlb.invalidate_vmid t.tlb ~vmid:device;
      List.iter (Page_pool.free t.pool)
        (Page_table.table_pages t.mem t.geometry ~root);
      t.contexts <- List.remove_assoc device t.contexts

let is_attached t ~device = List.mem_assoc device t.contexts

(** DMA translation as the SMMU hardware performs it. *)
let translate t ~device ~iova : (int * Pte.perms) option =
  if not t.enabled then
    (* SMMU disabled: DMA goes straight to physical memory — precisely the
       configuration KCore's invariants must rule out *)
    Some (Page_table.va_page iova, Pte.rw)
  else
    match root_of t ~device with
    | None -> None
    | Some root -> (
        let vp = Page_table.va_page iova in
        match Tlb.lookup t.tlb ~vmid:device ~vp with
        | Some (pfn, perms) -> Some (pfn, perms)
        | None -> (
            match Page_table.walk t.mem t.geometry ~root iova with
            | Page_table.Mapped (pfn, perms) ->
                Tlb.fill t.tlb ~vmid:device ~vp ~pfn ~perms;
                Some (pfn, perms)
            | Page_table.Fault _ -> None))

let invalidate_tlb_va t ~device ~iova =
  Tlb.invalidate_va t.tlb ~vmid:device ~vp:(Page_table.va_page iova)

(** All pfns reachable by DMA from [device] — for isolation invariants. *)
let reachable_pfns t ~device =
  match root_of t ~device with
  | None -> []
  | Some root ->
      List.map (fun (_, pfn, _) -> pfn)
        (Page_table.mappings t.mem t.geometry ~root)
