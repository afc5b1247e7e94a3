(* Tests for the machine substrate: PTE encoding, physical memory, page
   pools, and multi-level page tables in both stage-2 geometries. *)

open Machine

let test_pte_roundtrip_cases () =
  let cases =
    [ Pte.Invalid; Pte.Table 42; Pte.Page (7, Pte.rw); Pte.Page (0, Pte.ro);
      Pte.Page (123456, { Pte.readable = false; writable = true }) ]
  in
  List.iter
    (fun pte ->
      Alcotest.(check bool) "roundtrip" true
        (Pte.equal (Pte.decode (Pte.encode pte)) pte))
    cases;
  Alcotest.(check bool) "invalid encodes to 0" true (Pte.encode Pte.Invalid = 0);
  Alcotest.(check bool) "0 is invalid" false (Pte.is_valid 0)

let qcheck_pte_roundtrip =
  QCheck.Test.make ~name:"pte encode/decode roundtrip" ~count:500
    QCheck.(triple (int_bound 1_000_000) bool bool)
    (fun (pfn, readable, writable) ->
      let pte = Pte.Page (pfn, { Pte.readable; writable }) in
      Pte.equal (Pte.decode (Pte.encode pte)) pte
      && Pte.equal (Pte.decode (Pte.encode (Pte.Table pfn))) (Pte.Table pfn))

let test_phys_mem () =
  let mem = Phys_mem.create 8 in
  Phys_mem.write mem ~pfn:3 ~idx:100 42;
  Alcotest.(check int) "rw" 42 (Phys_mem.read mem ~pfn:3 ~idx:100);
  Alcotest.(check int) "default zero" 0 (Phys_mem.read mem ~pfn:3 ~idx:99);
  Phys_mem.copy_page mem ~src:3 ~dst:4;
  Alcotest.(check int) "copied" 42 (Phys_mem.read mem ~pfn:4 ~idx:100);
  Alcotest.(check bool) "pages equal" true (Phys_mem.page_equal mem 3 4);
  Phys_mem.scrub mem 3;
  Alcotest.(check int) "scrubbed" 0 (Phys_mem.read mem ~pfn:3 ~idx:100);
  Alcotest.(check bool) "digest differs" true
    (Phys_mem.digest_page mem 3 <> Phys_mem.digest_page mem 4);
  Alcotest.check_raises "oob pfn"
    (Invalid_argument "Phys_mem: pfn 9 out of range") (fun () ->
      ignore (Phys_mem.read mem ~pfn:9 ~idx:0))

(* ---- Phys_mem against a naive model ----

   The implementation keeps a frame as a spine of 16 blocks of 32 words,
   shares one zero block among all never-written blocks (and one zero
   spine among all never-written frames), and allocates a frame's spine
   and a block on the first non-zero store into them; the model is a
   plain [int array array]. Every operation must return the same result
   (or raise the same exception) on both, and the memories must agree
   word for word afterwards. *)

type mem_op =
  | Op_write of int * int * int
  | Op_read of int * int
  | Op_scrub of int
  | Op_fill of int * int
  | Op_copy of int * int
  | Op_equal of int * int
  | Op_digest of int
  | Op_nonzero of int

let show_mem_op = function
  | Op_write (p, i, v) -> Printf.sprintf "write %d[%d] <- %d" p i v
  | Op_read (p, i) -> Printf.sprintf "read %d[%d]" p i
  | Op_scrub p -> Printf.sprintf "scrub %d" p
  | Op_fill (p, v) -> Printf.sprintf "fill %d %d" p v
  | Op_copy (s, d) -> Printf.sprintf "copy %d -> %d" s d
  | Op_equal (a, b) -> Printf.sprintf "equal %d %d" a b
  | Op_digest p -> Printf.sprintf "digest %d" p
  | Op_nonzero p -> Printf.sprintf "nonzero %d" p

let model_pages = 4

module Model = struct
  let check_pfn pfn =
    if pfn < 0 || pfn >= model_pages then
      invalid_arg (Printf.sprintf "Phys_mem: pfn %d out of range" pfn)

  let page m pfn = check_pfn pfn; m.(pfn)

  let run m = function
    | Op_write (p, i, v) -> (page m p).(i) <- v; `Unit
    | Op_read (p, i) -> `Int (page m p).(i)
    | Op_scrub p -> Array.fill (page m p) 0 512 0; `Unit
    | Op_fill (p, v) -> Array.fill (page m p) 0 512 v; `Unit
    | Op_copy (s, d) ->
        let src = page m s in
        Array.blit src 0 (page m d) 0 512;
        `Unit
    | Op_equal (a, b) ->
        let pa = page m a in
        `Bool (pa = page m b)
    | Op_digest p ->
        `Int (Array.fold_left (fun acc w -> (acc * 1_000_003) lxor w) 0x811c9dc5 (page m p))
    | Op_nonzero p ->
        let acc = ref [] in
        Array.iteri (fun i w -> if w <> 0 then acc := (i, w) :: !acc) (page m p);
        `Words (List.rev !acc)
end

let run_impl mem = function
  | Op_write (pfn, idx, v) -> Phys_mem.write mem ~pfn ~idx v; `Unit
  | Op_read (pfn, idx) -> `Int (Phys_mem.read mem ~pfn ~idx)
  | Op_scrub p -> Phys_mem.scrub mem p; `Unit
  | Op_fill (p, v) -> Phys_mem.fill mem p v; `Unit
  | Op_copy (src, dst) -> Phys_mem.copy_page mem ~src ~dst; `Unit
  | Op_equal (a, b) -> `Bool (Phys_mem.page_equal mem a b)
  | Op_digest p -> `Int (Phys_mem.digest_page mem p)
  | Op_nonzero p ->
      let acc = ref [] in
      Phys_mem.iter_nonzero mem p (fun i w -> acc := (i, w) :: !acc);
      `Words (List.rev !acc)

let outcome f = try f () with Invalid_argument msg -> `Raised msg

(* Run [ops] on both; the first disagreement, if any. *)
let model_mismatch ops =
  let mem = Phys_mem.create model_pages in
  let m = Array.init model_pages (fun _ -> Array.make 512 0) in
  let rec go = function
    | [] ->
        let differs = ref None in
        for p = 0 to model_pages - 1 do
          for i = 0 to 511 do
            if !differs = None && Phys_mem.read mem ~pfn:p ~idx:i <> m.(p).(i)
            then differs := Some (Printf.sprintf "final word %d[%d]" p i)
          done
        done;
        !differs
    | op :: rest ->
        if outcome (fun () -> run_impl mem op) = outcome (fun () -> Model.run m op)
        then go rest
        else Some (show_mem_op op)
  in
  go ops

let gen_mem_op =
  let open QCheck.Gen in
  (* mostly valid frames and indices, sometimes one past either end;
     the indices crowd into the first block, both sides of the edge
     between blocks 0 and 1, and the last block, so writes (0 ones
     included) land in blocks already written *)
  let pfn = frequency [ (12, int_bound (model_pages - 1)); (1, return (-1)); (1, return model_pages) ] in
  let idx =
    frequency
      [ (4, int_bound 15); (3, int_range 28 35); (3, int_range 480 511);
        (2, int_bound 511); (1, oneofl [ -1; 512 ]) ]
  in
  let value = frequency [ (3, return 0); (4, int_range (-5) 9); (1, int) ] in
  frequency
    [ (6, map3 (fun p i v -> Op_write (p, i, v)) pfn idx value);
      (3, map2 (fun p i -> Op_read (p, i)) pfn idx);
      (1, map (fun p -> Op_scrub p) pfn);
      (1, map2 (fun p v -> Op_fill (p, v)) pfn value);
      (2, map2 (fun s d -> Op_copy (s, d)) pfn pfn);
      (1, map2 (fun a b -> Op_equal (a, b)) pfn pfn);
      (1, map (fun p -> Op_digest p) pfn);
      (1, map (fun p -> Op_nonzero p) pfn) ]

let qcheck_phys_mem_model =
  QCheck.Test.make ~name:"phys mem agrees with a naive page array" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 40) gen_mem_op))
    (fun ops ->
      match model_mismatch ops with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "mismatch at %s" what)

let test_phys_mem_zero_page_cases () =
  let agree label ops =
    Alcotest.(check (option string)) label None (model_mismatch ops)
  in
  agree "write 0 to a fresh page"
    [ Op_write (1, 5, 0); Op_read (1, 5); Op_nonzero 1; Op_equal (1, 2); Op_digest 1 ];
  agree "copy from a never-written page"
    [ Op_write (2, 7, 3); Op_copy (0, 2); Op_read (2, 7); Op_write (2, 7, 4); Op_read (0, 7) ];
  agree "a write to src after a copy leaves dst alone"
    [ Op_write (0, 1, 9); Op_copy (0, 3); Op_write (0, 1, 10); Op_read (3, 1); Op_equal (0, 3) ];
  agree "out-of-range frames and indices raise"
    [ Op_read (-1, 0); Op_write (4, 0, 1); Op_write (1, 512, 0); Op_write (1, -1, 7);
      Op_read (1, 512); Op_scrub 4; Op_fill (-1, 0); Op_copy (0, 4); Op_nonzero 4 ];
  agree "scrub and fill 0 after writes"
    [ Op_write (1, 0, 1); Op_scrub 1; Op_write (2, 0, 1); Op_fill (2, 0); Op_equal (1, 2);
      Op_fill (3, 6); Op_nonzero 3; Op_write (3, 511, 0); Op_digest 3 ];
  agree "writes of 0 into a written block"
    [ Op_write (1, 31, 5); Op_write (1, 31, 0); Op_write (1, 30, 0); Op_read (1, 31);
      Op_nonzero 1; Op_equal (0, 1); Op_digest 1; Op_write (1, 32, 0); Op_equal (0, 1) ];
  agree "words on both sides of a block edge"
    [ Op_write (2, 31, 7); Op_write (2, 32, 8); Op_read (2, 31); Op_read (2, 32);
      Op_read (2, 33); Op_nonzero 2; Op_write (2, 480, 1); Op_write (2, 479, 2);
      Op_write (2, 511, 3); Op_nonzero 2; Op_digest 2 ];
  agree "copy of a partly written frame"
    [ Op_write (0, 3, 1); Op_write (0, 500, 2); Op_copy (0, 1); Op_equal (0, 1);
      Op_write (1, 40, 4); Op_write (1, 3, 5); Op_read (0, 40); Op_read (0, 3);
      Op_equal (0, 1); Op_nonzero 0; Op_nonzero 1; Op_write (1, 40, 0);
      Op_write (1, 3, 1); Op_equal (0, 1); Op_copy (2, 1); Op_nonzero 1 ]

(* iter_nonzero against a word-by-word scan. Every one of the 32
   offsets within a block gets a non-zero word in some block of frame 1,
   and frame 1 may also get words at both edges of the first, the second
   and the last block (0, 31, 32, 63, 480, 511); frame 0 stays on the
   shared zero page, frame 2 is filled with a non-zero word and then
   partly cleared, and frame 3 is written and then scrubbed back to the
   zero page. *)
let qcheck_iter_nonzero =
  let naive mem pfn =
    List.filter (fun (_, w) -> w <> 0)
      (List.init Phys_mem.entries_per_page (fun idx ->
           (idx, Phys_mem.read mem ~pfn ~idx)))
  in
  let scan mem pfn =
    let acc = ref [] in
    Phys_mem.iter_nonzero mem pfn (fun idx w -> acc := (idx, w) :: !acc);
    List.rev !acc
  in
  let block = 32 in
  let blocks = (Phys_mem.entries_per_page / block) - 1 in
  let edges = [ 0; 31; 32; 63; 480; 511 ] in
  let nonzero v = if v = 0 then 1 else v in
  QCheck.Test.make ~name:"iter_nonzero agrees with a naive scan" ~count:300
    QCheck.(
      quad
        (list_of_size (Gen.return block)
           (pair (int_bound blocks) (oneof [ int_range 1 1000; int ])))
        (list_of_size (Gen.return (List.length edges)) (option small_nat))
        (small_list (pair (int_bound 511) int))
        (int_range (-3) 3))
    (fun (per_offset, at_edges, extra, fill) ->
      let mem = Phys_mem.create 4 in
      List.iteri
        (fun off (blk, v) ->
          Phys_mem.write mem ~pfn:1 ~idx:((blk * block) + off) (nonzero v))
        per_offset;
      List.iter2
        (fun idx v ->
          Option.iter (fun v -> Phys_mem.write mem ~pfn:1 ~idx (nonzero v)) v)
        edges at_edges;
      Phys_mem.fill mem 2 fill;
      List.iter
        (fun (idx, v) ->
          Phys_mem.write mem ~pfn:1 ~idx v;
          Phys_mem.write mem ~pfn:2 ~idx 0;
          Phys_mem.write mem ~pfn:3 ~idx v)
        extra;
      Phys_mem.scrub mem 3;
      List.for_all (fun pfn -> scan mem pfn = naive mem pfn) [ 0; 1; 2; 3 ])

let test_page_pool () =
  let mem = Phys_mem.create 16 in
  Phys_mem.write mem ~pfn:5 ~idx:0 99;
  let pool = Page_pool.create ~name:"t" ~mem ~first_pfn:4 ~n_pages:4 in
  Alcotest.(check int) "scrubbed at create" 0 (Phys_mem.read mem ~pfn:5 ~idx:0);
  Alcotest.(check int) "available" 4 (Page_pool.available pool);
  let a = Page_pool.alloc pool in
  let b = Page_pool.alloc pool in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check int) "allocated" 2 (Page_pool.allocated pool);
  Phys_mem.write mem ~pfn:a ~idx:7 1;
  Page_pool.free pool a;
  Alcotest.(check int) "scrub on free" 0 (Phys_mem.read mem ~pfn:a ~idx:7);
  let _ = Page_pool.alloc pool
  and _ = Page_pool.alloc pool
  and _ = Page_pool.alloc pool in
  Alcotest.check_raises "exhausted" (Page_pool.Pool_exhausted "t") (fun () ->
      ignore (Page_pool.alloc pool))

let with_table _g f =
  let mem = Phys_mem.create 64 in
  let pool = Page_pool.create ~name:"pt" ~mem ~first_pfn:1 ~n_pages:48 in
  let root = Page_pool.alloc pool in
  f mem pool root

let map_ok mem pool g root va pfn =
  match Page_table.plan_map mem g ~pool ~root ~va ~target_pfn:pfn ~perms:Pte.rw with
  | Ok ws ->
      Page_table.apply_writes mem ws;
      ws
  | Error `Already_mapped -> Alcotest.fail "unexpected Already_mapped"

let walk_t = Alcotest.testable Page_table.pp_walk_result Page_table.equal_walk_result

let test_map_walk geometry () =
  with_table geometry @@ fun mem pool root ->
  let g = geometry in
  let va = Page_table.page_va 0x1234 in
  Alcotest.check walk_t "fault before" (Page_table.Fault (g.Page_table.levels - 1))
    (Page_table.walk mem g ~root va);
  let ws = map_ok mem pool g root va 17 in
  Alcotest.(check int) "one write per level" g.Page_table.levels (List.length ws);
  Alcotest.check walk_t "mapped" (Page_table.Mapped (17, Pte.rw))
    (Page_table.walk mem g ~root va);
  (* second map in the same leaf table is a single write *)
  let ws2 = map_ok mem pool g root (va + 4096) 18 in
  Alcotest.(check int) "single write" 1 (List.length ws2);
  (* double-mapping is refused *)
  (match Page_table.plan_map mem g ~pool ~root ~va ~target_pfn:99 ~perms:Pte.rw with
  | Error `Already_mapped -> ()
  | Ok _ -> Alcotest.fail "should refuse overwrite");
  (* unmap *)
  (match Page_table.plan_unmap mem g ~root ~va with
  | Some w ->
      Page_table.apply_write mem w;
      Alcotest.check walk_t "fault after unmap" (Page_table.Fault 0)
        (Page_table.walk mem g ~root va)
  | None -> Alcotest.fail "expected unmap plan");
  (* unmapping an unmapped address yields no plan *)
  Alcotest.(check bool) "no double unmap" true
    (Page_table.plan_unmap mem g ~root ~va = None)

let test_revert geometry () =
  with_table geometry @@ fun mem pool root ->
  let g = geometry in
  let va = Page_table.page_va 0x77 in
  let before = Page_table.walk mem g ~root va in
  (match Page_table.plan_map mem g ~pool ~root ~va ~target_pfn:5 ~perms:Pte.rw with
  | Ok ws ->
      Page_table.apply_writes mem ws;
      Page_table.revert_writes mem ws
  | Error `Already_mapped -> Alcotest.fail "map failed");
  Alcotest.check walk_t "state restored" before (Page_table.walk mem g ~root va)

let test_mappings_listing geometry () =
  with_table geometry @@ fun mem pool root ->
  let g = geometry in
  let vps = [ 3; 512; 1000 ] in
  List.iteri
    (fun i vp -> ignore (map_ok mem pool g root (Page_table.page_va vp) (20 + i)))
    vps;
  let ms = Page_table.mappings mem g ~root in
  Alcotest.(check int) "three mappings" 3 (List.length ms);
  Alcotest.(check (list int)) "vps" vps
    (List.sort compare (List.map (fun (vp, _, _) -> vp) ms));
  let tables = Page_table.table_pages mem g ~root in
  Alcotest.(check bool) "root listed" true (List.mem root tables);
  Alcotest.(check bool) "more than root" true (List.length tables > 1)

(* The walkers report each leaf's own permissions: all four
   readable/writable combinations, on 4 KB leaves and on level-1 blocks,
   through [mappings], [extents] and [walk]. *)
let test_leaf_perms geometry () =
  with_table geometry @@ fun mem pool root ->
  let g = geometry in
  let all_perms =
    [ { Pte.readable = false; writable = false }; Pte.ro;
      { Pte.readable = false; writable = true }; Pte.rw ]
  in
  let bp = Page_table.block_pages ~level:1 in
  List.iteri
    (fun i perms ->
      (match
         Page_table.plan_map mem g ~pool ~root ~va:(Page_table.page_va i)
           ~target_pfn:(10 + i) ~perms
       with
      | Ok ws -> Page_table.apply_writes mem ws
      | Error `Already_mapped -> Alcotest.fail "map");
      match
        Page_table.plan_map_block mem g ~pool ~root
          ~va:(Page_table.page_va ((i + 1) * bp))
          ~target_pfn:((i + 1) * bp) ~perms ~level:1
      with
      | Ok ws -> Page_table.apply_writes mem ws
      | Error (`Already_mapped | `Misaligned) -> Alcotest.fail "map block")
    all_perms;
  let perms_t = Alcotest.testable Pte.pp_perms Pte.equal_perms in
  let expected_extents =
    List.mapi (fun i p -> (i, 10 + i, p, 1)) all_perms
    @ List.mapi (fun i p -> ((i + 1) * bp, (i + 1) * bp, p, bp)) all_perms
  in
  Alcotest.(check (list (pair (pair int int) (pair perms_t int))))
    "extents"
    (List.map (fun (vp, pfn, p, n) -> ((vp, pfn), (p, n))) expected_extents)
    (List.map
       (fun (e : Page_table.extent) -> ((e.e_vp, e.e_pfn), (e.e_perms, e.e_pages)))
       (Page_table.extents mem g ~root));
  let expected_maps =
    List.concat_map
      (fun (vp, pfn, p, n) -> List.init n (fun k -> (vp + k, pfn + k, p)))
      expected_extents
  in
  let maps = Page_table.mappings mem g ~root in
  Alcotest.(check int) "mappings" (List.length expected_maps) (List.length maps);
  List.iter2
    (fun (vp, pfn, p) (vp', pfn', p') ->
      Alcotest.(check (pair int int)) "mapping" (vp, pfn) (vp', pfn');
      Alcotest.check perms_t (Printf.sprintf "perms of vp %d" vp) p p')
    expected_maps maps;
  List.iter
    (fun (vp, pfn, p, n) ->
      Alcotest.check walk_t "walk"
        (Page_table.Mapped (pfn + n - 1, p))
        (Page_table.walk mem g ~root (Page_table.page_va (vp + n - 1))))
    expected_extents

let test_index_geometry () =
  let g4 = Page_table.four_level and g3 = Page_table.three_level in
  Alcotest.(check int) "va bits 4-level" 48 (Page_table.va_bits g4);
  Alcotest.(check int) "va bits 3-level" 39 (Page_table.va_bits g3);
  let va = (5 lsl 12) lor (7 lsl 21) lor (9 lsl 30) in
  Alcotest.(check int) "level0 idx" 5 (Page_table.index g3 ~level:0 va);
  Alcotest.(check int) "level1 idx" 7 (Page_table.index g3 ~level:1 va);
  Alcotest.(check int) "level2 idx" 9 (Page_table.index g3 ~level:2 va);
  Alcotest.(check int) "page offset" 0xabc (Page_table.page_offset 0x1abc);
  Alcotest.(check int) "page va roundtrip" 42
    (Page_table.va_page (Page_table.page_va 42))

let qcheck_map_then_walk =
  QCheck.Test.make ~name:"map then walk finds the frame" ~count:100
    QCheck.(pair (int_bound 4000) (int_bound 60))
    (fun (vp, pfn) ->
      with_table Page_table.three_level @@ fun mem pool root ->
      let g = Page_table.three_level in
      let va = Page_table.page_va vp in
      match
        Page_table.plan_map mem g ~pool ~root ~va ~target_pfn:pfn
          ~perms:Pte.rw
      with
      | Ok ws ->
          Page_table.apply_writes mem ws;
          Page_table.walk mem g ~root va = Page_table.Mapped (pfn, Pte.rw)
      | Error `Already_mapped -> false)

let test_s2page () =
  let db = S2page.create ~n_pages:8 ~default_owner:S2page.Kserv in
  Alcotest.(check bool) "default" true (S2page.owner db 3 = S2page.Kserv);
  S2page.set_owner db 3 (S2page.Vm 2);
  Alcotest.(check bool) "set" true (S2page.owner db 3 = S2page.Vm 2);
  S2page.incr_map db 3;
  S2page.incr_map db 3;
  Alcotest.(check int) "map count" 2 (S2page.map_count db 3);
  S2page.decr_map db 3;
  Alcotest.(check int) "decr" 1 (S2page.map_count db 3);
  S2page.set_shared db 3 true;
  Alcotest.(check bool) "shared" true (S2page.is_shared db 3);
  Alcotest.(check (list int)) "owned by vm2" [ 3 ]
    (S2page.pages_owned_by db (S2page.Vm 2));
  S2page.decr_map db 3;
  Alcotest.check_raises "underflow"
    (Invalid_argument "S2page: map_count underflow") (fun () ->
      S2page.decr_map db 3)

(* A run of pages planned at once against one [plan_map] per page, each
   page's writes applied before the next is planned: the same writes in
   the same order, and the pools then hand out the same frames. Each
   case starts from a tree with some pages and level-1 blocks already
   mapped near the run, so some runs are refused with [Already_mapped]
   (then only the pools are compared). Runs start near a 2 MB or 1 GB
   boundary or anywhere low, and are long enough to cross leaf tables. *)
let run_census = Hashtbl.create 8
let count_run label =
  Hashtbl.replace run_census label
    (1 + Option.value (Hashtbl.find_opt run_census label) ~default:0)

let qcheck_plan_run =
  let gen =
    let open QCheck.Gen in
    let* g = oneofl [ Page_table.four_level; Page_table.three_level ] in
    let* base = oneofl [ 0; 512; 512 * 512 ] in
    let* start = map (fun o -> max 0 (base + o)) (int_range (-700) 700) in
    let* pages = frequency [ (1, int_range 1 4); (3, int_range 1 1300) ] in
    let premapped =
      pair bool (map (fun o -> max 0 (start + o)) (int_range (-600) (pages + 600)))
    in
    let* pre = list_size (int_range 0 3) premapped in
    let* target = int_bound 5000 in
    return (g, start, pages, pre, target)
  in
  let print (g, start, pages, pre, target) =
    Printf.sprintf "%d levels, vp %d, %d pages to pfn %d, premapped %s"
      g.Page_table.levels start pages target
      (String.concat " "
         (List.map (fun (block, vp) -> Printf.sprintf "%s%d" (if block then "b" else "") vp) pre))
  in
  QCheck.Test.make ~name:"a planned run = one plan_map per page" ~count:600
    (QCheck.make ~print gen)
    (fun (g, start, pages, pre, target) ->
      let setup () =
        let mem = Phys_mem.create 80 in
        let pool = Page_pool.create ~name:"pt" ~mem ~first_pfn:1 ~n_pages:64 in
        let root = Page_pool.alloc pool in
        List.iter
          (fun (block, vp) ->
            let planned =
              if block then
                let bp = Page_table.block_pages ~level:1 in
                let vp = vp / bp * bp in
                Result.map_error
                  (fun (`Already_mapped | `Misaligned) -> ())
                  (Page_table.plan_map_block mem g ~pool ~root
                     ~va:(Page_table.page_va vp) ~target_pfn:vp ~perms:Pte.ro
                     ~level:1)
              else
                Result.map_error
                  (fun `Already_mapped -> ())
                  (Page_table.plan_map mem g ~pool ~root
                     ~va:(Page_table.page_va vp) ~target_pfn:vp ~perms:Pte.ro)
            in
            Result.iter (Page_table.apply_writes mem) planned)
          pre;
        (mem, pool, root)
      in
      let drain pool =
        let rec go acc =
          match Page_pool.alloc pool with
          | pfn -> go (pfn :: acc)
          | exception Page_pool.Pool_exhausted _ -> List.rev acc
        in
        go []
      in
      let va = Page_table.page_va start in
      let mem, pool, root = setup () in
      let available = Page_pool.available pool in
      let run =
        Page_table.plan_map ~pages mem g ~pool ~root ~va ~target_pfn:target
          ~perms:Pte.rw
      in
      let mem', pool', root' = setup () in
      let rec per_page k acc =
        if k = pages then Ok (List.concat (List.rev acc))
        else
          match
            Page_table.plan_map mem' g ~pool:pool' ~root:root'
              ~va:(va + Page_table.page_va k) ~target_pfn:(target + k)
              ~perms:Pte.rw
          with
          | Ok ws ->
              Page_table.apply_writes mem' ws;
              per_page (k + 1) (ws :: acc)
          | Error `Already_mapped -> Error `Already_mapped
      in
      let expected = per_page 0 [] in
      let last = start + pages - 1 in
      count_run (if Result.is_ok expected then "planned" else "refused");
      if Result.is_error run && Page_pool.available pool < available then
        count_run "refused after allocating";
      if start / 512 <> last / 512 then count_run "crosses a leaf table";
      if start / (512 * 512) <> last / (512 * 512) then
        count_run "crosses a level-1 table";
      (match (run, expected) with
      | Ok ws, Ok ws' -> List.equal Page_table.equal_pt_write ws ws'
      | Error `Already_mapped, Error `Already_mapped -> true
      | _ -> false)
      && drain pool = drain pool')

(* The property on its fixed seed, then a floor on what its cases drew. *)
let test_plan_run () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 1 |]) qcheck_plan_run;
  List.iter
    (fun label ->
      let n = Option.value (Hashtbl.find_opt run_census label) ~default:0 in
      if n < 20 then Alcotest.failf "%s: %d cases, floor 20" label n)
    [ "planned"; "refused"; "refused after allocating"; "crosses a leaf table";
      "crosses a level-1 table" ]

(* The ownership database against a naive model: a map from frame to
   (owner, shared, map count), absent meaning (Kserv, false, 0). Random
   sequences of the four mutators, on frames a little outside the
   database too, must raise the same [Invalid_argument] message (out of
   range, underflow) or leave the same state: every query, one
   [diff_map_counts] against a random tally and every [pages_owned_by].
   After every op the running [total_map_count] equals the model's sum
   of map counts, and an op that raises leaves it as it was. *)
type s2op =
  | Set_owner of int * S2page.owner
  | Set_shared of int * bool
  | Incr of int
  | Decr of int

let qcheck_s2page_model =
  let n = 12 in
  let owners = [ S2page.Kcore; S2page.Kserv; S2page.Vm 1; S2page.Vm 2 ] in
  let gen =
    let open QCheck.Gen in
    let pfn = int_range (-2) (n + 1) in
    let op =
      frequency
        [ (2, map2 (fun p o -> Set_owner (p, o)) pfn (oneofl owners));
          (2, map2 (fun p b -> Set_shared (p, b)) pfn bool);
          (3, map (fun p -> Incr p) pfn);
          (3, map (fun p -> Decr p) pfn) ]
    in
    pair (list_size (int_range 0 60) op) (array_repeat n (int_bound 3))
  in
  QCheck.Test.make ~name:"s2page agrees with a naive model" ~count:300
    (QCheck.make gen)
    (fun (ops, tally) ->
      let db = S2page.create ~n_pages:n ~default_owner:S2page.Kserv in
      let model = Hashtbl.create 16 in
      let get p =
        if p < 0 || p >= n then
          invalid_arg (Printf.sprintf "S2page: pfn %d out of range" p);
        Option.value (Hashtbl.find_opt model p)
          ~default:(S2page.Kserv, false, 0)
      in
      let outcome f = try Ok (f ()) with Invalid_argument m -> Error m in
      let model_step = function
        | Set_owner (p, o) ->
            let _, s, c = get p in
            Hashtbl.replace model p (o, s, c)
        | Set_shared (p, b) ->
            let o, _, c = get p in
            Hashtbl.replace model p (o, b, c)
        | Incr p ->
            let o, s, c = get p in
            Hashtbl.replace model p (o, s, c + 1)
        | Decr p ->
            let o, s, c = get p in
            if c <= 0 then invalid_arg "S2page: map_count underflow";
            Hashtbl.replace model p (o, s, c - 1)
      in
      let db_step = function
        | Set_owner (p, o) -> S2page.set_owner db p o
        | Set_shared (p, b) -> S2page.set_shared db p b
        | Incr p -> S2page.incr_map db p
        | Decr p -> S2page.decr_map db p
      in
      let model_total () =
        Hashtbl.fold (fun _ (_, _, c) acc -> acc + c) model 0
      in
      List.for_all
        (fun op ->
          let before = S2page.total_map_count db in
          let got = outcome (fun () -> db_step op) in
          got = outcome (fun () -> model_step op)
          && S2page.total_map_count db = model_total ()
          && (Result.is_ok got || S2page.total_map_count db = before))
        ops
      && List.for_all
           (fun p ->
             outcome (fun () ->
                 (S2page.owner db p, S2page.is_shared db p, S2page.map_count db p))
             = outcome (fun () -> get p))
           (List.init (n + 4) (fun i -> i - 2))
      &&
      let diffs = ref [] in
      S2page.diff_map_counts db tally (fun p c -> diffs := (p, c) :: !diffs);
      List.rev !diffs
      = List.filter_map
          (fun p ->
            let _, _, c = get p in
            if c <> tally.(p) then Some (p, c) else None)
          (List.init n Fun.id)
      && List.for_all
           (fun o ->
             S2page.pages_owned_by db o
             = List.filter
                 (fun p ->
                   let o', _, _ = get p in
                   S2page.equal_owner o o')
                 (List.init n Fun.id))
           (S2page.Vm 3 :: owners)
      && outcome (fun () -> S2page.diff_map_counts db [| 0 |] (fun _ _ -> ()))
         = Error "S2page.diff_map_counts: wrong length")

let () =
  Alcotest.run "machine"
    [ ( "pte",
        [ Alcotest.test_case "roundtrip" `Quick test_pte_roundtrip_cases;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_pte_roundtrip ] );
      ( "memory",
        [ Alcotest.test_case "phys mem" `Quick test_phys_mem;
          Alcotest.test_case "phys mem zero-page cases" `Quick
            test_phys_mem_zero_page_cases;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 17 |])
            qcheck_phys_mem_model;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_iter_nonzero;
          Alcotest.test_case "page pool" `Quick test_page_pool;
          Alcotest.test_case "s2page" `Quick test_s2page;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_s2page_model ] );
      ( "page-table-4level",
        [ Alcotest.test_case "map/walk" `Quick
            (test_map_walk Page_table.four_level);
          Alcotest.test_case "revert" `Quick
            (test_revert Page_table.four_level);
          Alcotest.test_case "mappings" `Quick
            (test_mappings_listing Page_table.four_level);
          Alcotest.test_case "leaf permissions" `Quick
            (test_leaf_perms Page_table.four_level) ] );
      ( "page-table-3level",
        [ Alcotest.test_case "map/walk" `Quick
            (test_map_walk Page_table.three_level);
          Alcotest.test_case "revert" `Quick
            (test_revert Page_table.three_level);
          Alcotest.test_case "mappings" `Quick
            (test_mappings_listing Page_table.three_level);
          Alcotest.test_case "leaf permissions" `Quick
            (test_leaf_perms Page_table.three_level);
          Alcotest.test_case "geometry/index" `Quick test_index_geometry;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_map_then_walk ] );
      ( "page-table-runs",
        [ Alcotest.test_case "a planned run = one plan_map per page" `Quick
            test_plan_run ] ) ]
