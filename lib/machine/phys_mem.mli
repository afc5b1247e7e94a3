(** Physical memory: an array of 4 KB pages of 512 word-sized entries —
    the single backing store for data pages, every page table, and
    KCore's own memory. *)

type t

val page_size : int
val entries_per_page : int

val create : int -> t
(** [create n_pages] — all pages zeroed. *)

val n_pages : t -> int

val read : t -> pfn:int -> idx:int -> int
(** Raises [Invalid_argument] on an out-of-range frame. *)

val write : t -> pfn:int -> idx:int -> int -> unit

val scrub : t -> int -> unit
(** Zero a whole page (freed/granted memory). *)

val fill : t -> int -> int -> unit
val copy_page : t -> src:int -> dst:int -> unit
val page_equal : t -> int -> int -> bool

val digest_page : t -> int -> int
(** A cheap stand-in for a cryptographic page digest (the paper's Ed25519
    VM-image authentication): order-sensitive rolling hash. *)

val iter_nonzero : t -> int -> (int -> int -> unit) -> unit
(** [iter_nonzero t pfn f] calls [f idx w] for every non-zero word [w] of
    frame [pfn], in index order; a page that was never written (or was
    scrubbed since) costs nothing, and a 32-word block of it that was
    never written costs one comparison. The one scan primitive the
    page-table walkers build on. *)
