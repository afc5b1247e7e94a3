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
    let w = Phys_mem.read mem ~pfn ~idx:(index g ~level va) in
    if not (Pte.is_valid w) then Fault level
    else if Pte.is_table w then
      if level = 0 then Fault level (* malformed: table PTE at leaf *)
      else go (Pte.frame w) (level - 1)
    else
      let offset = va_page va land (block_pages ~level - 1) in
      Mapped (Pte.frame w + offset, Pte.leaf_perms w)
  in
  go root (g.levels - 1)

(* The one walk-allocate-set planner. It plans [pages] consecutive
   entries at [level], entry [k] mapping [target_pfn + k * block_pages
   ~level] with [perms]; each must be empty. The writes, and the tables
   taken from the pool, are those of one call per entry with each call's
   writes applied before the next, in the same order. [fill] plans
   entries into one table at [level]; [enter] descends to the next such
   table: from the root for the first entry, and otherwise from the level
   where the carry into the entry's index stopped, whose table [tables]
   still holds. So a run of leaf pages descends once per leaf table. On
   the way down a table is allocated for every empty entry and its parent
   entry's write planned. Each slot is read once, before any write to it
   is planned, and fresh tables come scrubbed from the pool, so memory
   alone answers every read, in a tree that reaches no table page twice. *)
let plan_set mem g ~pool ~root ~va ~level ~pages ~target_pfn ~perms =
  let top = g.levels - 1 in
  let tables = Array.make g.levels root in
  let rec descend va l writes =
    if l = level then Ok writes
    else
      let pfn = tables.(l) and idx = index g ~level:l va in
      let old = Phys_mem.read mem ~pfn ~idx in
      if not (Pte.is_valid old) then begin
        let fresh = Page_pool.alloc pool in
        tables.(l - 1) <- fresh;
        descend va (l - 1)
          ({ w_pfn = pfn; w_idx = idx; w_old = old;
             w_new = Pte.encode (Pte.Table fresh) } :: writes)
      end
      else if Pte.is_table old then begin
        tables.(l - 1) <- Pte.frame old;
        descend va (l - 1) writes
      end
      else Error `Already_mapped
  in
  let rec carry va l =
    if l >= top then top
    else if index g ~level:l va <> 0 then l
    else carry va (l + 1)
  in
  let step = block_pages ~level in
  (* plan entries [k ..] into the table at [level], from its slot [idx] *)
  let rec fill k pfn idx writes =
    if k = pages then Ok (List.rev writes)
    else if idx = Phys_mem.entries_per_page then enter k writes
    else
      let old = Phys_mem.read mem ~pfn ~idx in
      if Pte.is_valid old then Error `Already_mapped
      else
        let w_new = Pte.encode (Pte.Page (target_pfn + (k * step), perms)) in
        fill (k + 1) pfn (idx + 1)
          ({ w_pfn = pfn; w_idx = idx; w_old = old; w_new } :: writes)
  (* descend to entry [k]'s table *)
  and enter k writes =
    let va = va + page_va (k * step) in
    let from = if k = 0 then top else carry va (level + 1) in
    match descend va from writes with
    | Ok writes -> fill k tables.(level) (index g ~level va) writes
    | Error _ as e -> e
  in
  enter 0 []

(** Plan the writes needed to map [pages] (default 1) consecutive pages
    from [va] to consecutive frames from [target_pfn] under [root],
    allocating intermediate tables from [pool]. Returns the write list in
    program order (each new table's parent entry as the walk descends,
    each leaf after the tables it needs); an existing valid leaf is never
    overwritten.

    The writes are returned without being applied so that callers
    ({!Sekvm.Npt}) can interleave them with barrier/TLBI bookkeeping and so
    the transactional checker can exercise their reorderings. *)
let plan_map ?(pages = 1) mem g ~pool ~root ~va ~target_pfn ~perms :
    (pt_write list, [ `Already_mapped ]) result =
  plan_set mem g ~pool ~root ~va ~level:0 ~pages ~target_pfn ~perms

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
  else
    plan_set mem g ~pool ~root ~va ~level ~pages:1 ~target_pfn ~perms

(** Plan the (single) write that unmaps [va]: clears the leaf entry, or
    the whole block entry when [va] is covered by a block mapping. *)
let plan_unmap mem g ~root ~va : pt_write option =
  let rec go pfn level =
    let idx = index g ~level va in
    let w = Phys_mem.read mem ~pfn ~idx in
    if not (Pte.is_valid w) then None
    else if Pte.is_table w then
      if level = 0 then None else go (Pte.frame w) (level - 1)
    else Some { w_pfn = pfn; w_idx = idx; w_old = w; w_new = Pte.encode Pte.Invalid }
  in
  go root (g.levels - 1)

let apply_write mem (w : pt_write) = Phys_mem.write mem ~pfn:w.w_pfn ~idx:w.w_idx w.w_new
let apply_writes mem ws = List.iter (apply_write mem) ws
let revert_write mem (w : pt_write) = Phys_mem.write mem ~pfn:w.w_pfn ~idx:w.w_idx w.w_old
let revert_writes mem ws = List.iter (revert_write mem) (List.rev ws)

let iter_tree mem g ~root ~table ?leaf () =
  let scan_leaves = Option.is_some leaf in
  let leaf = Option.value leaf ~default:(fun _ _ _ _ -> ()) in
  table root;
  let rec go pfn level va_prefix =
    Phys_mem.iter_nonzero mem pfn (fun idx w ->
        if Pte.is_valid w then begin
          let va = va_prefix lor (idx lsl (page_shift + (level * bits_per_level))) in
          if not (Pte.is_table w) then
            leaf (va_page va) (Pte.frame w) (Pte.leaf_perms w) level
          else if level > 0 then begin
            let next = Pte.frame w in
            table next;
            if scan_leaves || level > 1 then go next (level - 1) va
          end
        end)
  in
  go root (g.levels - 1) 0

let iter_leaves mem g ~root leaf = iter_tree mem g ~root ~table:ignore ~leaf ()

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
  let acc = ref [] in
  iter_tree mem g ~root ~table:(fun pfn -> acc := pfn :: !acc) ();
  List.rev !acc
