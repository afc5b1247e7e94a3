(** Multi-level page-table trees over physical memory.

    Supports the two stage-2 geometries the paper verifies (§5.6): 4-level
    (48-bit input addresses) and 3-level (39-bit), with 9 address bits per
    level and a 4 KB leaf granule. The walker here is the {e software} view
    used by the kernel itself; the {e hardware} (racy) walker that may
    observe in-flight writes lives in {!Mmu_walker}. *)

type geometry = { levels : int } [@@deriving show, eq]

let four_level = { levels = 4 }
let three_level = { levels = 3 }

let bits_per_level = 9
let page_shift = 12

let va_bits g = page_shift + (g.levels * bits_per_level)

(** Table index of [va] at [level] (level 0 = leaf). *)
let index g ~level va =
  if level < 0 || level >= g.levels then invalid_arg "Page_table.index";
  (va lsr (page_shift + (level * bits_per_level))) land ((1 lsl bits_per_level) - 1)

let page_offset va = va land ((1 lsl page_shift) - 1)

let va_page va = va lsr page_shift
let page_va vp = vp lsl page_shift

type walk_result =
  | Mapped of int * Pte.perms  (** output pfn + permissions *)
  | Fault of int  (** faulting level *)
[@@deriving show, eq]

(** A single physical word inside a page-table page, as touched by a walk
    or an update — the unit the transactional checker reasons about. *)
type pt_write = { w_pfn : int; w_idx : int; w_old : int; w_new : int }
[@@deriving show, eq]

(** Pages covered by a block mapping at [level] (level 0 = a 4 KB page). *)
let block_pages ~level = 1 lsl (level * bits_per_level)

(** Walk [va] from the table rooted at [root]: the atomic (SC) walk. A
    [Pte.Page] entry above the leaf level is a {e block} (huge-page)
    mapping covering [block_pages ~level] frames; the output frame is the
    block base plus [va]'s residual page index. *)
let walk mem g ~root va =
  let rec go pfn level =
    let idx = index g ~level va in
    match Pte.decode (Phys_mem.read mem ~pfn ~idx) with
    | Pte.Invalid -> Fault level
    | Pte.Table next ->
        if level = 0 then Fault level (* malformed: table PTE at leaf *)
        else go next (level - 1)
    | Pte.Page (out, perms) ->
        let offset = va_page va land (block_pages ~level - 1) in
        Mapped (out + offset, perms)
  in
  go root (g.levels - 1)

(** Plan the writes needed to map [va -> pfn] under [root], allocating
    intermediate tables from [pool]. Returns the write list {e in program
    order} (parents before children? No: KCore's walk-allocate-set writes
    the new table's parent entry as it descends, then the leaf last) and
    whether an existing valid leaf would be overwritten.

    The writes are returned without being applied so that callers
    ({!Sekvm.Npt}) can interleave them with barrier/TLBI bookkeeping and so
    the transactional checker can exercise their reorderings. *)
let plan_map mem g ~pool ~root ~va ~target_pfn ~perms :
    (pt_write list, [ `Already_mapped ]) result =
  let writes = ref [] in
  let shadow = Hashtbl.create 8 in
  (* reads must observe our own planned writes *)
  let read pfn idx =
    match Hashtbl.find_opt shadow (pfn, idx) with
    | Some v -> v
    | None -> Phys_mem.read mem ~pfn ~idx
  in
  let plan_write pfn idx v =
    let old = read pfn idx in
    writes := { w_pfn = pfn; w_idx = idx; w_old = old; w_new = v } :: !writes;
    Hashtbl.replace shadow (pfn, idx) v
  in
  let rec go pfn level =
    let idx = index g ~level va in
    if level = 0 then
      match Pte.decode (read pfn idx) with
      | Pte.Invalid ->
          plan_write pfn idx (Pte.encode (Pte.Page (target_pfn, perms)));
          Ok (List.rev !writes)
      | Pte.Table _ | Pte.Page _ -> Error `Already_mapped
    else
      match Pte.decode (read pfn idx) with
      | Pte.Table next -> go next (level - 1)
      | Pte.Invalid ->
          let fresh = Page_pool.alloc pool in
          plan_write pfn idx (Pte.encode (Pte.Table fresh));
          go fresh (level - 1)
      | Pte.Page _ -> Error `Already_mapped
  in
  go root (g.levels - 1)

(** Plan a block (huge-page) mapping of [va -> target_pfn] at [level]
    (level 1 = 2 MB with 4 KB granules). [va] and [target_pfn] must be
    aligned to the block size; missing intermediate tables are allocated
    down to [level]; the entry there must be empty. *)
let plan_map_block mem g ~pool ~root ~va ~target_pfn ~perms ~level :
    (pt_write list, [ `Already_mapped | `Misaligned ]) result =
  if level <= 0 || level >= g.levels then invalid_arg "plan_map_block: level";
  let bp = block_pages ~level in
  if va_page va land (bp - 1) <> 0 || target_pfn land (bp - 1) <> 0 then
    Error `Misaligned
  else begin
    let writes = ref [] in
    let shadow = Hashtbl.create 8 in
    let read pfn idx =
      match Hashtbl.find_opt shadow (pfn, idx) with
      | Some v -> v
      | None -> Phys_mem.read mem ~pfn ~idx
    in
    let plan_write pfn idx v =
      let old = read pfn idx in
      writes := { w_pfn = pfn; w_idx = idx; w_old = old; w_new = v } :: !writes;
      Hashtbl.replace shadow (pfn, idx) v
    in
    let rec go pfn l =
      let idx = index g ~level:l va in
      if l = level then
        match Pte.decode (read pfn idx) with
        | Pte.Invalid ->
            plan_write pfn idx (Pte.encode (Pte.Page (target_pfn, perms)));
            Ok (List.rev !writes)
        | Pte.Table _ | Pte.Page _ -> Error `Already_mapped
      else
        match Pte.decode (read pfn idx) with
        | Pte.Table next -> go next (l - 1)
        | Pte.Invalid ->
            let fresh = Page_pool.alloc pool in
            plan_write pfn idx (Pte.encode (Pte.Table fresh));
            go fresh (l - 1)
        | Pte.Page _ -> Error `Already_mapped
    in
    go root (g.levels - 1)
  end

(** Plan the (single) write that unmaps [va]: clears the leaf entry, or
    the whole block entry when [va] is covered by a block mapping. *)
let plan_unmap mem g ~root ~va : pt_write option =
  let rec go pfn level =
    let idx = index g ~level va in
    match Pte.decode (Phys_mem.read mem ~pfn ~idx) with
    | Pte.Invalid -> None
    | Pte.Table next -> if level = 0 then None else go next (level - 1)
    | Pte.Page _ ->
        Some
          { w_pfn = pfn;
            w_idx = idx;
            w_old = Phys_mem.read mem ~pfn ~idx;
            w_new = Pte.encode Pte.Invalid }
  in
  go root (g.levels - 1)

let apply_write mem (w : pt_write) = Phys_mem.write mem ~pfn:w.w_pfn ~idx:w.w_idx w.w_new
let apply_writes mem ws = List.iter (apply_write mem) ws
let revert_write mem (w : pt_write) = Phys_mem.write mem ~pfn:w.w_pfn ~idx:w.w_idx w.w_old
let revert_writes mem ws = List.iter (revert_write mem) (List.rev ws)

(* Every valid leaf or block entry under [root], in address order:
   [f vp out perms level]. Tables are scanned with {!Phys_mem.iter_nonzero},
   so empty entries (and never-written table pages) cost nothing. *)
let iter_leaves mem g ~root f =
  let rec go pfn level va_prefix =
    Phys_mem.iter_nonzero mem pfn (fun idx w ->
        let va_part = va_prefix lor (idx lsl (page_shift + (level * bits_per_level))) in
        match Pte.decode w with
        | Pte.Invalid -> ()
        | Pte.Table next -> if level > 0 then go next (level - 1) va_part
        | Pte.Page (out, perms) -> f (va_page va_part) out perms level)
  in
  go root (g.levels - 1) 0

(** All (vp, pfn, perms) page mappings reachable from [root] — block
    mappings are expanded to their constituent 4 KB pages, so invariant
    checkers see every reachable frame. *)
let mappings mem g ~root =
  let acc = ref [] in
  iter_leaves mem g ~root (fun vp out perms level ->
      for k = 0 to block_pages ~level - 1 do
        acc := (vp + k, out + k, perms) :: !acc
      done);
  List.rev !acc

(** Leaf-entry granularity view: one record per PTE, blocks unexpanded. *)
type extent = { e_vp : int; e_pfn : int; e_perms : Pte.perms; e_pages : int }

let extents mem g ~root =
  let acc = ref [] in
  iter_leaves mem g ~root (fun vp out perms level ->
      acc :=
        { e_vp = vp; e_pfn = out; e_perms = perms; e_pages = block_pages ~level }
        :: !acc);
  List.rev !acc

(** Pfns of every table page in the tree (root included). *)
let table_pages mem g ~root =
  let acc = ref [ root ] in
  let rec go pfn level =
    if level > 0 then
      Phys_mem.iter_nonzero mem pfn (fun _ w ->
          match Pte.decode w with
          | Pte.Table next ->
              acc := next :: !acc;
              go next (level - 1)
          | Pte.Invalid | Pte.Page _ -> ())
  in
  go root (g.levels - 1);
  List.rev !acc
