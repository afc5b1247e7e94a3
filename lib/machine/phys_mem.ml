(** Physical memory: an array of 4 KB pages of 512 word-sized entries.
    This is the single backing store for data pages, stage-2 page-table
    pages, SMMU page-table pages and KCore's own memory; the ownership
    database ({!S2page}) tracks who may touch what.

    A frame is two-level: a spine of 16 blocks of 32 words. Every
    never-written block is one shared immutable [zero_block], and every
    never-written frame is one shared [zero_page] whose spine holds only
    [zero_block]. The first store of a non-zero word gives its frame a
    spine of its own and its block a 32-word array; scrubbing (or filling
    with 0) puts the frame back on [zero_page]. Most frames of a booted
    system are never written, and a page-table page holds a few entries,
    so {!iter_nonzero} skips an empty frame or block by physical
    equality and reads only the blocks that were written. *)

let page_size = 4096
let entries_per_page = 512
let block_bits = 5
let block_size = 1 lsl block_bits
let block_mask = block_size - 1
let blocks_per_page = entries_per_page / block_size

type t = {
  n_pages : int;
  pages : int array array array;
}

(* Never written, either of them: every store that would change a word
   allocates a private spine and block first. *)
let zero_block = Array.make block_size 0
let zero_page = Array.make blocks_per_page zero_block

let create n_pages = { n_pages; pages = Array.make n_pages zero_page }

let n_pages t = t.n_pages

let check_pfn t pfn =
  if pfn < 0 || pfn >= t.n_pages then
    invalid_arg (Printf.sprintf "Phys_mem: pfn %d out of range" pfn)

(* [idx lsr block_bits] is past the spine for every [idx] outside 0-511
   (a negative one included), so the spine access bounds-checks [idx]. *)
let read t ~pfn ~idx =
  check_pfn t pfn;
  t.pages.(pfn).(idx lsr block_bits).(idx land block_mask)

let write t ~pfn ~idx v =
  check_pfn t pfn;
  let page = t.pages.(pfn) in
  let b = idx lsr block_bits in
  let block = page.(b) in
  if block != zero_block then block.(idx land block_mask) <- v
  else if v <> 0 then begin
    let page =
      if page != zero_page then page
      else begin
        let page = Array.make blocks_per_page zero_block in
        t.pages.(pfn) <- page;
        page
      end
    in
    let block = Array.make block_size 0 in
    block.(idx land block_mask) <- v;
    page.(b) <- block
  end

(** Zero a whole page (scrubbing freed/granted memory). *)
let scrub t pfn =
  check_pfn t pfn;
  t.pages.(pfn) <- zero_page

let fill t pfn v =
  check_pfn t pfn;
  t.pages.(pfn) <-
    (if v = 0 then zero_page
     else Array.init blocks_per_page (fun _ -> Array.make block_size v))

(** Copy page contents (VM image loading, snapshots). *)
let copy_page t ~src ~dst =
  check_pfn t src;
  check_pfn t dst;
  let s = t.pages.(src) in
  t.pages.(dst) <-
    (if s == zero_page then zero_page
     else Array.map (fun b -> if b == zero_block then b else Array.copy b) s)

let page_equal t a b =
  check_pfn t a;
  check_pfn t b;
  t.pages.(a) = t.pages.(b)

(** A cheap stand-in for a cryptographic page digest (the paper's Ed25519
    VM-image authentication): order-sensitive rolling hash. *)
let digest_page t pfn =
  check_pfn t pfn;
  Array.fold_left
    (Array.fold_left (fun acc w -> (acc * 1_000_003) lxor w))
    0x811c9dc5 t.pages.(pfn)

let iter_nonzero t pfn f =
  check_pfn t pfn;
  let page = t.pages.(pfn) in
  if page != zero_page then
    for b = 0 to blocks_per_page - 1 do
      let block = Array.unsafe_get page b in
      if block != zero_block then
        (* a written block of a table page is still mostly zeros: test
           eight words at a time, spelled out because a local helper
           closure would be called, not inlined *)
        for q = 0 to (block_size / 8) - 1 do
          let o = q * 8 in
          if Array.unsafe_get block o lor Array.unsafe_get block (o + 1)
             lor Array.unsafe_get block (o + 2) lor Array.unsafe_get block (o + 3)
             lor Array.unsafe_get block (o + 4) lor Array.unsafe_get block (o + 5)
             lor Array.unsafe_get block (o + 6) lor Array.unsafe_get block (o + 7)
             <> 0
          then begin
            let base = (b lsl block_bits) + o in
            for i = 0 to 7 do
              let v = Array.unsafe_get block (o + i) in
              if v <> 0 then f (base + i) v
            done
          end
        done
    done
