(** Page-table entry encoding.

    Entries are stored in page-table pages as plain integers, so that a
    page-table update is an ordinary word store — which is exactly what
    makes page tables racy against the MMU walker. The encoding packs:

    - bit 0: valid
    - bit 1: table (points to a next-level table) vs block/page (leaf)
    - bit 2: readable
    - bit 3: writable
    - bits 12..: physical frame number (next-level table or output frame)
*)

type perms = { readable : bool; writable : bool } [@@deriving show, eq]

let rw = { readable = true; writable = true }
let ro = { readable = true; writable = false }

type t =
  | Invalid
  | Table of int  (** pfn of the next-level table page *)
  | Page of int * perms  (** leaf: output frame + permissions *)
[@@deriving show, eq]

let pfn_shift = 12

let encode = function
  | Invalid -> 0
  | Table pfn -> (pfn lsl pfn_shift) lor 0b0011
  | Page (pfn, p) ->
      (pfn lsl pfn_shift) lor 0b0001
      lor (if p.readable then 0b0100 else 0)
      lor if p.writable then 0b1000 else 0

let is_valid w = w land 1 <> 0
let is_table w = w land 0b10 <> 0
let frame w = w lsr pfn_shift

(* bits 2 and 3 select one of four shared (statically allocated)
   records: walkers hand out a leaf's permissions without allocating *)
let leaf_perms w =
  match (w lsr 2) land 0b11 with
  | 0 -> { readable = false; writable = false }
  | 1 -> ro
  | 2 -> { readable = false; writable = true }
  | _ -> rw

let decode w =
  if not (is_valid w) then Invalid
  else if is_table w then Table (frame w)
  else Page (frame w, leaf_perms w)
