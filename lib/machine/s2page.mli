(** The page ownership database (paper §5.3): each 4 KB frame has exactly
    one owner — KCore, KServ, or a VM — plus a shared flag (paravirtual
    I/O) and a mapping reference count. *)

type owner = Kcore | Kserv | Vm of int

type t

val create : n_pages:int -> default_owner:owner -> t
(** Every accessor below raises [Invalid_argument] on a frame outside
    [0, n_pages). *)
val n_pages : t -> int
val owner : t -> int -> owner
val set_owner : t -> int -> owner -> unit
val is_shared : t -> int -> bool
val set_shared : t -> int -> bool -> unit
val map_count : t -> int -> int
val incr_map : t -> int -> unit

val decr_map : t -> int -> unit
(** Raises [Invalid_argument] on underflow, leaving the count as it was. *)

val total_map_count : t -> int
(** The sum of every frame's map count. *)

val diff_map_counts : t -> int array -> (int -> int -> unit) -> unit
(** [diff_map_counts t counts f] calls [f pfn recorded] for every frame
    whose recorded map count differs from [counts.(pfn)], in ascending
    frame order. [counts] must have one entry per frame. *)

val pages_owned_by : t -> owner -> int list

val pp_owner : Format.formatter -> owner -> unit
val show_owner : owner -> string
val equal_owner : owner -> owner -> bool
val compare_owner : owner -> owner -> int
