(* The content-addressed verification cache:

   - the JSON codec is its own inverse on everything the library emits;
   - behavior sets round-trip through the codec bit-identically (same
     Behavior.t, same Fingerprint digest) — the property that lets a
     cached result stand in for a recomputed one;
   - the on-disk store round-trips entries, and every corruption mode
     (truncation, garbage, bad checksum, engine-version skew) is a MISS
     that recomputes, never a crash;
   - cache keys are stable across runs and across [--jobs] values, and
     sensitive to program content, budgets and engine version. *)

open Memmodel
open Cache

let tmpdir prefix =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rmdir d =
  (try
     Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
   with _ -> ());
  try Unix.rmdir d with _ -> ()

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [ Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 0.125;
      Json.String "hello \"world\"\nwith\tescapes\x01";
      Json.List [ Json.Int 1; Json.Null; Json.String "x" ];
      Json.Obj
        [ ("a", Json.Int 1);
          ("b", Json.List [ Json.Bool false ]);
          ("nested", Json.Obj [ ("c", Json.Float 2.5) ]) ] ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      match Json.of_string s with
      | Ok v' ->
          Alcotest.(check string) ("roundtrip " ^ s) s (Json.to_string v')
      | Error e -> Alcotest.failf "parse of %s failed: %s" s e)
    cases;
  (* malformed inputs are errors, not exceptions *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_behavior_roundtrip () =
  List.iter
    (fun (t : Litmus.t) ->
      let r = Litmus.run t in
      List.iter
        (fun (label, b) ->
          let b' = Codec.behaviors_of_json (Codec.behaviors_to_json b) in
          Alcotest.(check bool)
            (t.Litmus.prog.Prog.name ^ " " ^ label ^ " set equal")
            true (Behavior.equal b b');
          Alcotest.(check string)
            (t.Litmus.prog.Prog.name ^ " " ^ label ^ " digest")
            (Fingerprint.behaviors b) (Fingerprint.behaviors b'))
        [ ("sc", r.Litmus.sc); ("rm", r.Litmus.rm);
          ("rm-only", r.Litmus.rm_only) ])
    Paper_examples.all

let test_litmus_summary_roundtrip () =
  List.iter
    (fun (t : Litmus.t) ->
      let s = Codec.litmus_summary (Litmus.run t) in
      let j = Codec.litmus_to_json s in
      let s' = Codec.litmus_of_json j in
      Alcotest.(check string)
        (t.Litmus.prog.Prog.name ^ " payload stable")
        (Json.to_string j)
        (Json.to_string (Codec.litmus_to_json s')))
    Paper_examples.all;
  (* a tampered embedded digest must be rejected (-> cache miss) *)
  let s = Codec.litmus_summary (Litmus.run Paper_examples.mp_plain) in
  let j = Codec.litmus_to_json s in
  let tampered =
    match j with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "sc_digest" then (k, Json.String (String.make 32 '0'))
               else (k, v))
             fields)
    | _ -> assert false
  in
  (match Codec.litmus_of_json tampered with
  | exception Json.Decode _ -> ()
  | _ -> Alcotest.fail "tampered sc_digest was accepted")

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let payload_a = Json.Obj [ ("answer", Json.Int 42) ]

let entry_file dir key = Filename.concat dir (key ^ ".vrmc")

let mk_key i =
  Store.make_key ~engine_version:Engine.version ~model:"m" ~budgets:"b"
    ~prog_digest:(Printf.sprintf "p%d" i)

let test_store_roundtrip () =
  let dir = tmpdir "vrm-cache-test" in
  Fun.protect
    ~finally:(fun () -> rmdir dir)
    (fun () ->
      let s = Store.create ~dir ~engine_version:Engine.version () in
      let key =
        Store.make_key ~engine_version:Engine.version ~model:"litmus"
          ~budgets:"b" ~prog_digest:"p"
      in
      Alcotest.(check bool) "empty store misses" true (Store.find s key = None);
      Store.add s key payload_a;
      (match Store.find s key with
      | Some v ->
          Alcotest.(check string) "disk roundtrip" (Json.to_string payload_a)
            (Json.to_string v)
      | None -> Alcotest.fail "lost entry");
      let c = Store.counters s in
      Alcotest.(check int) "hit counted" 1 c.Store.hits;
      Alcotest.(check int) "miss counted" 1 c.Store.misses;
      Alcotest.(check int) "one entry on disk" 1 c.Store.entries;
      (* a fresh store on the same dir reads it back from disk *)
      let s2 = Store.create ~dir ~engine_version:Engine.version () in
      (match Store.find s2 key with
      | Some v ->
          Alcotest.(check string) "disk hit" (Json.to_string payload_a)
            (Json.to_string v)
      | None -> Alcotest.fail "disk entry not found");
      (* a dirless store is the always-miss cache-off configuration *)
      let s3 = Store.create ~engine_version:Engine.version () in
      Store.add s3 key payload_a;
      Alcotest.(check bool) "dirless store never serves" true
        (Store.find s3 key = None))

let test_store_gc () =
  let dir = tmpdir "vrm-cache-gc" in
  Fun.protect
    ~finally:(fun () -> rmdir dir)
    (fun () ->
      let s = Store.create ~dir ~engine_version:Engine.version () in
      let keys = List.init 5 mk_key in
      List.iter (fun k -> Store.add s k payload_a) keys;
      (* pin distinct mtimes: key i aged (5 - i) hours, so key 4 is the
         newest and key 0 the oldest *)
      let now = Unix.gettimeofday () in
      List.iteri
        (fun i k ->
          let t = now -. (3600. *. float_of_int (5 - i)) in
          Unix.utimes (entry_file dir k) t t)
        keys;
      let r = Store.gc s ~max_entries:2 in
      Alcotest.(check int) "gc examined" 5 r.Store.examined;
      Alcotest.(check int) "gc deleted" 3 r.Store.deleted;
      Alcotest.(check int) "gc kept" 2 r.Store.kept;
      List.iteri
        (fun i k ->
          let survives = Sys.file_exists (entry_file dir k) in
          Alcotest.(check bool)
            (Printf.sprintf "key %d %s" i
               (if i >= 3 then "survives" else "evicted"))
            (i >= 3) survives)
        keys;
      (* a hit refreshes mtime, so recently-used entries survive gc even
         when old: age key 3 far below key 4, then touch it with a find *)
      let old = now -. 7200. in
      Unix.utimes (entry_file dir (mk_key 3)) old old;
      ignore (Store.find s (mk_key 3));
      let r2 = Store.gc s ~max_entries:1 in
      Alcotest.(check int) "second gc deleted" 1 r2.Store.deleted;
      Alcotest.(check bool) "recently-hit entry survives" true
        (Sys.file_exists (entry_file dir (mk_key 3)));
      Alcotest.(check bool) "unused entry evicted" false
        (Sys.file_exists (entry_file dir (mk_key 4))))

(* One key's disk read is held open on a FIFO (read-write, so the
   reader's open never waits and what the release writes stays
   buffered): a lookup of another key and [Store.counters] must still
   return at once. A 3 s timer releases the hold with three lines, a
   corrupt entry, so a store that reads under its lock fails this case
   instead of hanging it. *)
let test_store_read_outside_lock () =
  let dir = tmpdir "vrm-cache-held" in
  Fun.protect
    ~finally:(fun () -> rmdir dir)
    (fun () ->
      let s = Store.create ~dir ~engine_version:Engine.version () in
      let held = mk_key 0 and other = mk_key 1 in
      Store.add s other payload_a;
      Unix.mkfifo (entry_file dir held) 0o600;
      let fd = Unix.openfile (entry_file dir held) [ Unix.O_RDWR ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let released = Atomic.make false and stop = Atomic.make false in
      let release () =
        if not (Atomic.exchange released true) then
          ignore (Unix.write_substring fd "held\n\n\n" 0 7)
      in
      let timer =
        Thread.create
          (fun () ->
            let deadline = Unix.gettimeofday () +. 3. in
            while (not (Atomic.get stop)) && Unix.gettimeofday () < deadline do
              Thread.delay 0.01
            done;
            release ())
          ()
      in
      let reader = Thread.create (fun () -> Store.find s held) () in
      (* give the reader time to block in the held read *)
      Thread.delay 0.2;
      let found = Store.find s other in
      let c = Store.counters s in
      let early = not (Atomic.get released) in
      Atomic.set stop true;
      release ();
      Thread.join timer;
      Thread.join reader;
      Alcotest.(check bool) "lookup and counters returned while a read was held"
        true early;
      Alcotest.(check bool) "the other key hit" true (found <> None);
      Alcotest.(check int) "its hit counted" 1 c.Store.hits;
      let c = Store.counters s in
      Alcotest.(check int) "the released read is a corrupt miss" 1
        c.Store.corrupt)

(* ------------------------------------------------------------------ *)
(* Hot tier                                                            *)
(* ------------------------------------------------------------------ *)

let test_hot_tier () =
  let dir = tmpdir "vrm-hot-test" in
  Fun.protect
    ~finally:(fun () -> rmdir dir)
    (fun () ->
      let store = Store.create ~dir ~engine_version:Engine.version () in
      let hot = Hot.create ~shards:4 ~capacity:64 store in
      let key = mk_key 0 in
      Alcotest.(check bool) "miss in both tiers" true
        (Hot.find hot key = None);
      Hot.add hot key payload_a;
      Alcotest.(check bool) "write-through: entry on disk" true
        (Sys.file_exists (entry_file dir key));
      (match Hot.find hot key with
      | Some v ->
          Alcotest.(check string) "hot hit payload"
            (Json.to_string payload_a) (Json.to_string v)
      | None -> Alcotest.fail "hot tier lost the entry");
      let c = Hot.counters hot in
      Alcotest.(check int) "hot hit counted" 1 c.Hot.hot_hits;
      Alcotest.(check int) "no disk hit yet" 0 c.Hot.disk_hits;
      (* the proof that warm hits never touch disk: destroy the disk
         entry, the hot tier still serves the decoded payload *)
      Out_channel.with_open_bin (entry_file dir key) (fun oc ->
          Out_channel.output_string oc "junk");
      (match Hot.find hot key with
      | Some v ->
          Alcotest.(check string) "hot hit despite corrupt disk"
            (Json.to_string payload_a) (Json.to_string v)
      | None -> Alcotest.fail "hot hit went to disk");
      (* a fresh hot tier over the corrupted entry misses both tiers *)
      let store2 = Store.create ~dir ~engine_version:Engine.version () in
      let hot2 = Hot.create ~shards:4 ~capacity:64 store2 in
      Alcotest.(check bool) "fresh tier sees the corruption" true
        (Hot.find hot2 key = None);
      (* heal the disk entry: a fresh tier promotes it (disk hit), then
         serves from memory (hot hit) *)
      Store.add store2 key payload_a;
      let store3 = Store.create ~dir ~engine_version:Engine.version () in
      let hot3 = Hot.create ~shards:4 ~capacity:64 store3 in
      Alcotest.(check bool) "promotion read" true (Hot.find hot3 key <> None);
      Alcotest.(check bool) "promoted hit" true (Hot.find hot3 key <> None);
      let c3 = Hot.counters hot3 in
      Alcotest.(check int) "one disk promotion" 1 c3.Hot.disk_hits;
      Alcotest.(check int) "one hot hit after promotion" 1 c3.Hot.hot_hits)

let test_hot_lru () =
  (* single shard, capacity 4: eviction is strictly least-recently-used,
     and a find refreshes recency *)
  let store = Store.create ~engine_version:Engine.version () in
  let hot = Hot.create ~shards:1 ~capacity:4 store in
  let keys = List.init 5 mk_key in
  let k i = List.nth keys i in
  List.iteri (fun i key -> if i < 4 then Hot.add hot key payload_a) keys;
  (* touch k0 so k1 becomes the LRU entry *)
  Alcotest.(check bool) "k0 resident" true (Hot.find hot (k 0) <> None);
  Hot.add hot (k 4) payload_a;
  let c = Hot.counters hot in
  Alcotest.(check int) "one eviction at capacity" 1 c.Hot.evictions;
  Alcotest.(check int) "size stays bounded" 4 c.Hot.size;
  Alcotest.(check bool) "LRU entry evicted" true (Hot.find hot (k 1) = None);
  Alcotest.(check bool) "recently-used entry survives" true
    (Hot.find hot (k 0) <> None);
  Alcotest.(check bool) "newest entry resident" true
    (Hot.find hot (k 4) <> None)

let test_hot_shards_and_off () =
  (* the shard index is decoded from the key's leading hex byte: keys
     with distinct prefixes land on distinct shards of a 4-shard tier *)
  let store = Store.create ~engine_version:Engine.version () in
  let hot = Hot.create ~shards:4 ~capacity:64 store in
  let prefixed p = p ^ String.make 30 'a' in
  List.iter
    (fun p -> Hot.add hot (prefixed p) payload_a)
    [ "00"; "01"; "02"; "03" ];
  let c = Hot.counters hot in
  Alcotest.(check int) "4 shards" 4 c.Hot.shard_count;
  Array.iteri
    (fun i sc ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d holds one entry" i)
        1 sc.Hot.s_size)
    c.Hot.per_shard;
  (* a disabled tier is a pure pass-through: nothing resident, nothing
     counted — the cache-off parity configuration *)
  let dir = tmpdir "vrm-hot-off" in
  Fun.protect
    ~finally:(fun () -> rmdir dir)
    (fun () ->
      let store = Store.create ~dir ~engine_version:Engine.version () in
      let off = Hot.create ~enabled:false store in
      Hot.add off (mk_key 0) payload_a;
      Alcotest.(check bool) "disabled tier still writes through" true
        (Hot.find off (mk_key 0) <> None);
      let c = Hot.counters off in
      Alcotest.(check int) "disabled: nothing resident" 0 c.Hot.size;
      Alcotest.(check int) "disabled: no hot hits" 0 c.Hot.hot_hits;
      Alcotest.(check int) "disabled: no promotions" 0 c.Hot.disk_hits)

let test_store_corruption () =
  let dir = tmpdir "vrm-cache-corrupt" in
  Fun.protect
    ~finally:(fun () -> rmdir dir)
    (fun () ->
      let key =
        Store.make_key ~engine_version:Engine.version ~model:"m" ~budgets:"b"
          ~prog_digest:"p"
      in
      let corruptions =
        [ ("truncated to header", fun file ->
             let lines = String.split_on_char '\n' (In_channel.with_open_bin file In_channel.input_all) in
             Out_channel.with_open_bin file (fun oc ->
                 Out_channel.output_string oc (List.hd lines ^ "\n")));
          ("empty file", fun file ->
             Out_channel.with_open_bin file (fun _ -> ()));
          ("garbage bytes", fun file ->
             Out_channel.with_open_bin file (fun oc ->
                 Out_channel.output_string oc "\x00\xffnot a cache entry"));
          ("payload flipped", fun file ->
             let s = In_channel.with_open_bin file In_channel.input_all in
             let s = String.map (fun c -> if c = '4' then '5' else c) s in
             Out_channel.with_open_bin file (fun oc ->
                 Out_channel.output_string oc s)) ]
      in
      List.iter
        (fun (name, corrupt) ->
          let s = Store.create ~dir ~engine_version:Engine.version () in
          Store.add s key payload_a;
          corrupt (entry_file dir key);
          (* a fresh store must treat the mangled entry as a miss *)
          let s2 = Store.create ~dir ~engine_version:Engine.version () in
          (match Store.find s2 key with
          | None -> ()
          | Some _ -> Alcotest.failf "%s: corrupt entry served as a hit" name);
          (* ... and recomputing (re-adding) heals it *)
          Store.add s2 key payload_a;
          let s3 = Store.create ~dir ~engine_version:Engine.version () in
          match Store.find s3 key with
          | Some v ->
              Alcotest.(check string)
                (name ^ ": healed")
                (Json.to_string payload_a) (Json.to_string v)
          | None -> Alcotest.failf "%s: healed entry still missing" name)
        corruptions;
      (* counters saw the corruption *)
      let s = Store.create ~dir ~engine_version:Engine.version () in
      Store.add s key payload_a;
      Out_channel.with_open_bin (entry_file dir key) (fun oc ->
          Out_channel.output_string oc "junk");
      let s2 = Store.create ~dir ~engine_version:Engine.version () in
      ignore (Store.find s2 key);
      Alcotest.(check int) "corrupt counter" 1
        (Store.counters s2).Store.corrupt)

let test_store_version_skew () =
  let dir = tmpdir "vrm-cache-skew" in
  Fun.protect
    ~finally:(fun () -> rmdir dir)
    (fun () ->
      let key =
        Store.make_key ~engine_version:"vrm-engine/old" ~model:"m"
          ~budgets:"b" ~prog_digest:"p"
      in
      let old = Store.create ~dir ~engine_version:"vrm-engine/old" () in
      Store.add old key payload_a;
      (* same key on disk, but the store now speaks a newer engine
         version: stale entries must not be served *)
      let current = Store.create ~dir ~engine_version:"vrm-engine/new" () in
      Alcotest.(check bool) "stale engine version is a miss" true
        (Store.find current key = None))

(* ------------------------------------------------------------------ *)
(* Keys and fingerprints                                               *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_stability () =
  (* same value fingerprinted twice -> same digest (no sharing/physical
     equality sneaking in) *)
  List.iter
    (fun (t : Litmus.t) ->
      Alcotest.(check string)
        (t.Litmus.prog.Prog.name ^ " prog digest deterministic")
        (Fingerprint.prog t.Litmus.prog)
        (Fingerprint.prog t.Litmus.prog))
    Paper_examples.all;
  (* a rebuilt structurally-equal program digests identically *)
  let p1 = Sekvm.Kernel_progs.gen_vmid_prog ~barriers:true "a" in
  let p2 = Sekvm.Kernel_progs.gen_vmid_prog ~barriers:true "b" in
  Alcotest.(check string) "name does not affect the digest"
    (Fingerprint.prog p1) (Fingerprint.prog p2);
  let q = Sekvm.Kernel_progs.gen_vmid_prog ~barriers:false "a" in
  Alcotest.(check bool) "content does affect the digest" true
    (Fingerprint.prog p1 <> Fingerprint.prog q);
  (* distinct corpus programs never collide *)
  let digests =
    List.map
      (fun (t : Litmus.t) -> Fingerprint.prog t.Litmus.prog)
      (Paper_examples.all @ Litmus_suite.all)
  in
  Alcotest.(check int) "no digest collisions across the corpus"
    (List.length digests)
    (List.length (List.sort_uniq compare digests))

let test_key_stability () =
  let spec =
    Service.Scheduler.Litmus_spec Paper_examples.mp_plain
  in
  let k1 = Service.Scheduler.cache_key spec in
  let k2 = Service.Scheduler.cache_key spec in
  Alcotest.(check string) "key stable across calls" k1 k2;
  (* the key must not depend on --jobs: running the same spec with
     different parallelism through a shared cache yields a hit *)
  let cache = Store.create ~engine_version:Engine.version () in
  let sched = Service.Scheduler.create ~workers:2 ~cache () in
  Fun.protect
    ~finally:(fun () -> Service.Scheduler.shutdown sched)
    (fun () ->
      (match Service.Scheduler.run sched ~jobs:1 spec with
      | Service.Scheduler.Done _, m ->
          Alcotest.(check bool) "first run computes" false
            m.Service.Scheduler.from_cache
      | _ -> Alcotest.fail "first run did not complete");
      match Service.Scheduler.run sched ~jobs:4 spec with
      | Service.Scheduler.Done _, m ->
          Alcotest.(check bool) "jobs=4 rerun is a cache hit" true
            m.Service.Scheduler.from_cache
      | _ -> Alcotest.fail "second run did not complete");
  (* different specs get different keys *)
  let keys =
    List.map
      (fun (t : Litmus.t) ->
        Service.Scheduler.cache_key (Service.Scheduler.Litmus_spec t))
      (Paper_examples.all @ Litmus_suite.all)
  in
  Alcotest.(check int) "no key collisions"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

let () =
  Alcotest.run "cache"
    [ ( "json",
        [ Alcotest.test_case "encoder/parser roundtrip" `Quick
            test_json_roundtrip ] );
      ( "codec",
        [ Alcotest.test_case "behavior sets roundtrip bit-identically" `Quick
            test_behavior_roundtrip;
          Alcotest.test_case "litmus summaries roundtrip; tampering rejected"
            `Quick test_litmus_summary_roundtrip ] );
      ( "store",
        [ Alcotest.test_case "disk roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "gc evicts LRU-by-mtime down to the bound"
            `Quick test_store_gc;
          Alcotest.test_case "every corruption mode is a miss, then heals"
            `Quick test_store_corruption;
          Alcotest.test_case "engine-version skew is a miss" `Quick
            test_store_version_skew;
          Alcotest.test_case "a held read blocks no other lookup" `Quick
            test_store_read_outside_lock ] );
      ( "hot",
        [ Alcotest.test_case "warm hits never touch disk; write-through"
            `Quick test_hot_tier;
          Alcotest.test_case "per-shard LRU eviction honors recency" `Quick
            test_hot_lru;
          Alcotest.test_case "shard placement; disabled tier passes through"
            `Quick test_hot_shards_and_off ] );
      ( "keys",
        [ Alcotest.test_case "program fingerprints stable and distinct"
            `Quick test_fingerprint_stability;
          Alcotest.test_case "cache keys stable, jobs-independent, distinct"
            `Quick test_key_stability ] ) ]
