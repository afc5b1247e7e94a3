(** Page-table entry encoding. Entries are stored in page-table pages as
    plain integers, so a page-table update is an ordinary word store —
    which is exactly what makes page tables racy against the MMU walker. *)

type perms = { readable : bool; writable : bool }

val rw : perms
val ro : perms

type t =
  | Invalid
  | Table of int  (** pfn of the next-level table page *)
  | Page of int * perms  (** leaf or block: output frame + permissions *)

val pfn_shift : int

val encode : t -> int
(** [encode Invalid = 0]: a scrubbed page is a page of invalid entries. *)

val decode : int -> t
val is_valid : int -> bool

val is_table : int -> bool
val frame : int -> int
(** Bits read without decoding: whether a valid entry points to a
    next-level table, and its frame (that table, or the output frame). *)

val leaf_perms : int -> perms
(** A leaf's permissions, as one of four shared records (no allocation). *)

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
val pp_perms : Format.formatter -> perms -> unit
val show_perms : perms -> string
val equal_perms : perms -> perms -> bool
