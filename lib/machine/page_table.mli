(** Multi-level page-table trees over physical memory: the two stage-2
    geometries the paper verifies (§5.6) — 4-level (48-bit) and 3-level
    (39-bit), 9 address bits per level, 4 KB granule — plus block
    (huge-page) mappings. The walker here is the {e software} view used by
    the kernel; the racy {e hardware} walker lives in {!Mmu_walker}. *)

type geometry = { levels : int }

val four_level : geometry
val three_level : geometry
val bits_per_level : int
val page_shift : int
val va_bits : geometry -> int

val index : geometry -> level:int -> int -> int
(** Table index of a VA at [level] (level 0 = leaf). *)

val page_offset : int -> int
val va_page : int -> int
val page_va : int -> int

type walk_result =
  | Mapped of int * Pte.perms  (** output pfn + permissions *)
  | Fault of int  (** faulting level *)

(** A single word inside a page-table page, as touched by an update — the
    unit the transactional checker reasons about. *)
type pt_write = { w_pfn : int; w_idx : int; w_old : int; w_new : int }

val block_pages : level:int -> int
(** Pages covered by a block mapping at [level] (level 0 = one page). *)

val walk : Phys_mem.t -> geometry -> root:int -> int -> walk_result
(** The atomic (SC) walk; a [Pte.Page] above the leaf level is a block
    mapping, translated with the VA's residual page index. *)

val plan_map :
  ?pages:int -> Phys_mem.t -> geometry -> pool:Page_pool.t -> root:int ->
  va:int -> target_pfn:int -> perms:Pte.perms ->
  (pt_write list, [ `Already_mapped ]) result
(** Plan the walk–allocate–set writes mapping [va -> target_pfn], in
    program order, without applying them — so callers can interleave
    barrier/TLBI bookkeeping and the transactional checker can exercise
    their reorderings. Never overwrites a valid entry.

    [pages] (default 1) plans a run: page [va + k] maps frame
    [target_pfn + k] for [k < pages]. The run's writes are exactly, and in
    the same order, those of one [plan_map] per page with each page's
    writes applied before the next is planned, and the pool hands out the
    same tables in the same order; but the walk descends once per leaf
    table, not once per page. This holds for a tree that reaches no table
    page twice. If any page's leaf entry is valid, or a block covers it,
    the result is [Error `Already_mapped] and nothing is returned for the
    pages before it; the pool has then handed out the tables those pages
    allocated, as the per-page calls up to the refused page would have. *)

val plan_map_block :
  Phys_mem.t -> geometry -> pool:Page_pool.t -> root:int -> va:int ->
  target_pfn:int -> perms:Pte.perms -> level:int ->
  (pt_write list, [ `Already_mapped | `Misaligned ]) result
(** Plan a block (huge-page) mapping at [level] (1 = 2 MB); [va] and
    [target_pfn] must be block-aligned. *)

val plan_unmap : Phys_mem.t -> geometry -> root:int -> va:int -> pt_write option
(** The single write clearing [va]'s leaf — or its whole covering block. *)

val apply_write : Phys_mem.t -> pt_write -> unit
val apply_writes : Phys_mem.t -> pt_write list -> unit
val revert_write : Phys_mem.t -> pt_write -> unit
val revert_writes : Phys_mem.t -> pt_write list -> unit

val iter_tree :
  Phys_mem.t -> geometry -> root:int -> table:(int -> unit) ->
  ?leaf:(int -> int -> Pte.perms -> int -> unit) -> unit -> unit
(** The one tree walk, reading entry bits directly (no {!Pte.decode}, no
    list): [table pfn] for every table page, root first, in the preorder
    {!table_pages} lists, and [leaf vp out perms level] for every valid
    leaf or block entry, in address order. Without [leaf], leaf-level
    table pages are listed but not scanned. *)

val mappings : Phys_mem.t -> geometry -> root:int -> (int * int * Pte.perms) list
(** All (vp, pfn, perms) page mappings; blocks are expanded to their
    constituent pages so invariant checkers see every reachable frame. *)

(** Leaf-entry granularity view: one record per PTE, blocks unexpanded. *)
type extent = { e_vp : int; e_pfn : int; e_perms : Pte.perms; e_pages : int }

val extents : Phys_mem.t -> geometry -> root:int -> extent list
val table_pages : Phys_mem.t -> geometry -> root:int -> int list

val pp_walk_result : Format.formatter -> walk_result -> unit
val show_walk_result : walk_result -> string
val equal_walk_result : walk_result -> walk_result -> bool
val pp_pt_write : Format.formatter -> pt_write -> unit
val show_pt_write : pt_write -> string
val equal_pt_write : pt_write -> pt_write -> bool
val pp_geometry : Format.formatter -> geometry -> unit
val show_geometry : geometry -> string
val equal_geometry : geometry -> geometry -> bool
