(** KCore's own EL2 stage-1 page table (paper §5.1).

    At boot, all physical memory is mapped one-to-one into a contiguous
    virtual region (like Linux's linear map on 64-bit). Afterwards the
    table changes in exactly one way: [remap_pfn] maps image pages into a
    contiguous {e remap region} above the linear map so the crypto library
    can hash scattered physical pages through contiguous virtual
    addresses. The single primitive that writes this table, [set_el2_pt],
    maps a run of consecutive pages (the whole linear map at boot, one
    page per [remap_pfn]) and refuses to overwrite a valid entry — the
    Write-Once-Kernel-Mapping condition is enforced by construction and
    every write is recorded for the trace checker. *)

open Machine

type t = {
  mem : Phys_mem.t;
  geometry : Page_table.geometry;
  pool : Page_pool.t;
  root : int;
  trace : Trace.t;
  linear_pages : int;  (** linear map covers virtual pages [0, linear_pages) *)
  mutable next_remap_vp : int;  (** bump allocator over the remap region *)
}

exception Write_once_violation of { va_page : int }

let remap_region_start t = t.linear_pages

(** Record the page-table writes with the EL2 table id. *)
let record_writes t ~cpu writes =
  List.iter
    (fun w ->
      Trace.record t.trace
        (Trace.E_pt_write { cpu; table = Trace.T_el2; write = w; locked = true }))
    writes

(** The only EL2 page-table write primitive: map [pages] (default 1)
    consecutive pages from [va] to consecutive frames from [pfn], all or
    none. [force] exists solely so the test-suite can manufacture a
    Write-Once violation for the checker to catch: a refused call then
    overwrites [va]'s own entry. KCore never passes it. *)
let set_el2_pt ?(force = false) ?(pages = 1) t ~cpu ~va ~pfn ~perms =
  match
    Page_table.plan_map ~pages t.mem t.geometry ~pool:t.pool ~root:t.root ~va
      ~target_pfn:pfn ~perms
  with
  | Ok writes ->
      Page_table.apply_writes t.mem writes;
      record_writes t ~cpu writes;
      Ok ()
  | Error `Already_mapped ->
      if force then begin
        (* overwrite the existing leaf: the forbidden behavior *)
        let g = t.geometry in
        let rec leaf pfn_t level =
          let idx = Page_table.index g ~level va in
          match Pte.decode (Phys_mem.read t.mem ~pfn:pfn_t ~idx) with
          | Pte.Table next when level > 0 -> leaf next (level - 1)
          | _ -> (pfn_t, idx)
        in
        let tp, idx = leaf t.root (g.levels - 1) in
        let w =
          { Page_table.w_pfn = tp;
            w_idx = idx;
            w_old = Phys_mem.read t.mem ~pfn:tp ~idx;
            w_new = Pte.encode (Pte.Page (pfn, perms)) }
        in
        Page_table.apply_write t.mem w;
        record_writes t ~cpu [ w ];
        Ok ()
      end
      else Error `Already_mapped

(** Build the boot-time linear map: virtual page [p] -> physical frame [p]
    for every frame of physical memory, as one [set_el2_pt] run, which
    writes and records exactly what one call per page would. *)
let create ~mem ~geometry ~pool ~trace ~cpu =
  let root = Page_pool.alloc pool in
  let linear_pages = Phys_mem.n_pages mem in
  let t =
    { mem; geometry; pool; root; trace; linear_pages;
      next_remap_vp = linear_pages }
  in
  match set_el2_pt t ~cpu ~pages:linear_pages ~va:0 ~pfn:0 ~perms:Pte.rw with
  | Ok () -> t
  | Error `Already_mapped -> raise (Write_once_violation { va_page = 0 })

(** [remap_pfn] (paper §5.1): map [pfn] at the next free virtual page of
    the remap region, read-only, and return that virtual address. Never
    unmaps or remaps. *)
let remap_pfn t ~cpu ~pfn =
  let vp = t.next_remap_vp in
  if Page_table.page_va vp >= 1 lsl Page_table.va_bits t.geometry then
    invalid_arg "El2_pt.remap_pfn: remap region exhausted";
  match
    set_el2_pt t ~cpu ~va:(Page_table.page_va vp) ~pfn ~perms:Pte.ro
  with
  | Ok () ->
      t.next_remap_vp <- vp + 1;
      Page_table.page_va vp
  | Error `Already_mapped -> raise (Write_once_violation { va_page = vp })

(** KCore's own translation (used when it hashes image pages through the
    remap region). *)
let translate t ~va =
  match Page_table.walk t.mem t.geometry ~root:t.root va with
  | Page_table.Mapped (pfn, perms) -> Some (pfn, perms)
  | Page_table.Fault _ -> None
