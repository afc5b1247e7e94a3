(** The page ownership database (paper §5.3).

    KCore tracks the owner of each 4 KB physical page: itself, KServ, or a
    VM. A page has exactly one owner at a time; its shared flag marks a
    page intentionally shared (e.g. for paravirtual I/O); [map_count]
    tracks how many stage-2/SMMU mappings reference the page, so that
    reclaim can verify a page is unmapped before transferring ownership. *)

type owner = Kcore | Kserv | Vm of int [@@deriving show, eq, ord]

(* Three flat arrays indexed by frame, rather than one record per frame:
   creating a database allocates three blocks, not one per frame, and the
   invariant checker's [diff_map_counts] compares two int arrays.
   [total_maps] is the sum of [map_counts], kept by the two functions
   that change a count. *)
type t = {
  owners : owner array;
  shared : bool array;
  map_counts : int array;
  mutable total_maps : int;
}

let create ~n_pages ~default_owner =
  { owners = Array.make n_pages default_owner;
    shared = Array.make n_pages false;
    map_counts = Array.make n_pages 0;
    total_maps = 0 }

let n_pages t = Array.length t.owners

let check t pfn =
  if pfn < 0 || pfn >= Array.length t.owners then
    invalid_arg (Printf.sprintf "S2page: pfn %d out of range" pfn)

let owner t pfn = check t pfn; t.owners.(pfn)
let set_owner t pfn o = check t pfn; t.owners.(pfn) <- o
let is_shared t pfn = check t pfn; t.shared.(pfn)
let set_shared t pfn b = check t pfn; t.shared.(pfn) <- b
let map_count t pfn = check t pfn; t.map_counts.(pfn)
let total_map_count t = t.total_maps

let incr_map t pfn =
  check t pfn;
  t.map_counts.(pfn) <- t.map_counts.(pfn) + 1;
  t.total_maps <- t.total_maps + 1

let decr_map t pfn =
  check t pfn;
  let c = t.map_counts.(pfn) in
  if c <= 0 then invalid_arg "S2page: map_count underflow";
  t.map_counts.(pfn) <- c - 1;
  t.total_maps <- t.total_maps - 1

(* one loop here rather than a [map_count] call per frame: the invariant
   checker compares every frame whenever a count is wrong *)
let diff_map_counts t counts f =
  let recorded = t.map_counts in
  if Array.length counts <> Array.length recorded then
    invalid_arg "S2page.diff_map_counts: wrong length";
  for pfn = 0 to Array.length recorded - 1 do
    let c = Array.unsafe_get recorded pfn in
    if c <> Array.unsafe_get counts pfn then f pfn c
  done

let pages_owned_by t o =
  let acc = ref [] in
  for pfn = Array.length t.owners - 1 downto 0 do
    if equal_owner t.owners.(pfn) o then acc := pfn :: !acc
  done;
  !acc
