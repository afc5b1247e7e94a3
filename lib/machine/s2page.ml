(** The page ownership database (paper §5.3).

    KCore tracks the owner of each 4 KB physical page: itself, KServ, or a
    VM. A page has exactly one owner at a time; [share] counts pages
    intentionally shared (e.g. for paravirtual I/O); [map_count] tracks how
    many stage-2/SMMU mappings reference the page, so that reclaim can
    verify a page is unmapped before transferring ownership. *)

type owner = Kcore | Kserv | Vm of int [@@deriving show, eq, ord]

type info = {
  mutable owner : owner;
  mutable shared : bool;
  mutable map_count : int;
}

type t = { pages : info array }

let create ~n_pages ~default_owner =
  { pages =
      Array.init n_pages (fun _ ->
          { owner = default_owner; shared = false; map_count = 0 }) }

let n_pages t = Array.length t.pages

let get t pfn =
  if pfn < 0 || pfn >= Array.length t.pages then
    invalid_arg (Printf.sprintf "S2page: pfn %d out of range" pfn);
  t.pages.(pfn)

let owner t pfn = (get t pfn).owner
let set_owner t pfn o = (get t pfn).owner <- o
let is_shared t pfn = (get t pfn).shared
let set_shared t pfn b = (get t pfn).shared <- b
let map_count t pfn = (get t pfn).map_count
let incr_map t pfn = (get t pfn).map_count <- (get t pfn).map_count + 1

let decr_map t pfn =
  let i = get t pfn in
  if i.map_count <= 0 then invalid_arg "S2page: map_count underflow";
  i.map_count <- i.map_count - 1

(* one loop here rather than a [map_count] call per frame: the invariant
   checker compares every frame on every call *)
let diff_map_counts t counts f =
  if Array.length counts <> Array.length t.pages then
    invalid_arg "S2page.diff_map_counts: wrong length";
  for pfn = 0 to Array.length t.pages - 1 do
    let recorded = (Array.unsafe_get t.pages pfn).map_count in
    if recorded <> Array.unsafe_get counts pfn then f pfn recorded
  done

let pages_owned_by t o =
  let acc = ref [] in
  Array.iteri (fun pfn i -> if i.owner = o then acc := pfn :: !acc) t.pages;
  List.rev !acc
