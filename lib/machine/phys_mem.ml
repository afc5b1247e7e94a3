(** Physical memory: an array of 4 KB pages, each page an array of 512
    word-sized entries. This is the single backing store for data pages,
    stage-2 page-table pages, SMMU page-table pages and KCore's own memory;
    the ownership database ({!S2page}) tracks who may touch what.

    Every frame starts out as one shared immutable [zero_page]: a frame
    gets its own array on the first store of a non-zero word, and goes
    back to [zero_page] when scrubbed (or filled with 0). Most frames of
    a booted system are never written, so boot allocates one page instead
    of one per frame, and {!iter_nonzero} skips such frames outright. *)

let page_size = 4096
let entries_per_page = 512

type t = {
  n_pages : int;
  pages : int array array;
}

(* Never written: every store that would change it allocates a private
   array for its frame first. *)
let zero_page = Array.make entries_per_page 0

let create n_pages = { n_pages; pages = Array.make n_pages zero_page }

let n_pages t = t.n_pages

let check_pfn t pfn =
  if pfn < 0 || pfn >= t.n_pages then
    invalid_arg (Printf.sprintf "Phys_mem: pfn %d out of range" pfn)

let read t ~pfn ~idx =
  check_pfn t pfn;
  t.pages.(pfn).(idx)

let write t ~pfn ~idx v =
  check_pfn t pfn;
  let page = t.pages.(pfn) in
  if page != zero_page then page.(idx) <- v
  else if v <> 0 then begin
    let page = Array.make entries_per_page 0 in
    page.(idx) <- v;
    t.pages.(pfn) <- page
  end
  else ignore page.(idx) (* a no-op store, still bounds-checked *)

(** Zero a whole page (scrubbing freed/granted memory). *)
let scrub t pfn =
  check_pfn t pfn;
  t.pages.(pfn) <- zero_page

let fill t pfn v =
  check_pfn t pfn;
  t.pages.(pfn) <-
    (if v = 0 then zero_page else Array.make entries_per_page v)

(** Copy page contents (VM image loading, snapshots). *)
let copy_page t ~src ~dst =
  check_pfn t src;
  check_pfn t dst;
  let s = t.pages.(src) in
  t.pages.(dst) <- (if s == zero_page then zero_page else Array.copy s)

let page_equal t a b =
  check_pfn t a;
  check_pfn t b;
  t.pages.(a) = t.pages.(b)

(** A cheap stand-in for a cryptographic page digest (the paper's Ed25519
    VM-image authentication): order-sensitive rolling hash. *)
let digest_page t pfn =
  check_pfn t pfn;
  Array.fold_left (fun acc w -> (acc * 1_000_003) lxor w) 0x811c9dc5 t.pages.(pfn)

let iter_nonzero t pfn f =
  check_pfn t pfn;
  let page = t.pages.(pfn) in
  if page != zero_page then
    (* table pages are mostly empty: test eight words at a time, spelled
       out because a local helper closure would be called, not inlined *)
    for blk = 0 to (entries_per_page / 8) - 1 do
      let b = blk * 8 in
      if Array.unsafe_get page b lor Array.unsafe_get page (b + 1)
         lor Array.unsafe_get page (b + 2) lor Array.unsafe_get page (b + 3)
         lor Array.unsafe_get page (b + 4) lor Array.unsafe_get page (b + 5)
         lor Array.unsafe_get page (b + 6) lor Array.unsafe_get page (b + 7)
         <> 0
      then
        for idx = b to b + 7 do
          let v = Array.unsafe_get page idx in
          if v <> 0 then f idx v
        done
    done
