(* Workload refine-sweep: Vrm.Refinement.check_many ~jobs:1 over the
   kernel corpus (certified and seeded-buggy entries, 11 in all). One
   operation is one corpus entry's refinement check; a sweep checks all
   entries in a seeded order. Promising exploration is almost all of the
   time, so this is the workload an exploration change moves. *)

open Common
open Sekvm

let corpus = Array.of_list (Kernel_progs.corpus @ Kernel_progs.buggy_corpus)

(* Known answers at engine version vrm-engine/6: the behavior digest of
   the whole corpus (entries in corpus order) and the states visited. *)
let expected_digest = "6e491ed7dba45c37d04157d3904a6851"
let expected_visited = 113_919

let digest_behaviors b =
  Digest.to_hex
    (Digest.string (Format.asprintf "%a" Memmodel.Behavior.pp b))

type sweep = {
  wall : float;  (* check_many wall seconds *)
  entry_s : float array;  (* engine wall seconds per entry, corpus order *)
  visited : int;
  digest : string;
  mismatches : int;  (* verdicts that differ from the entry's [expect] *)
  gc : Gc.stat * Gc.stat;  (* Gc.quick_stat before and after check_many *)
}

(* A sweep's figures; the verdicts themselves are returned separately so
   that the timed loop keeps none of them alive (a growing live heap
   would slow every later sweep's collections). *)
let sweep ?(req = 0) order =
  let specs =
    Array.to_list
      (Array.map
         (fun i ->
           let e = corpus.(i) in
           (e.Kernel_progs.name, e.prog, e.rm_config))
         order)
  in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let results, wall =
    time (fun () ->
        Span.run ~req "refinement.check_many" (fun _ ->
            Vrm.Refinement.check_many ~jobs:1 specs))
  in
  let g1 = Gc.quick_stat () in
  let verdicts = Array.make (Array.length corpus) None in
  List.iteri (fun k (_, v) -> verdicts.(order.(k)) <- Some v) results;
  let verdicts = Array.map Option.get verdicts in
  let stats_sum f =
    Array.fold_left
      (fun acc (v : Vrm.Refinement.verdict) ->
        acc + f v.sc_stats + f v.rm_stats)
      0 verdicts
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "|"
            (Array.to_list
               (Array.map
                  (fun (v : Vrm.Refinement.verdict) ->
                    digest_behaviors v.sc ^ digest_behaviors v.rm)
                  verdicts))))
  in
  let mismatches = ref 0 in
  Array.iteri
    (fun i (v : Vrm.Refinement.verdict) ->
      if v.holds <> corpus.(i).Kernel_progs.expect.e_refine then incr mismatches)
    verdicts;
  { wall;
    entry_s =
      Array.map
        (fun (v : Vrm.Refinement.verdict) ->
          v.sc_stats.Memmodel.Engine.wall_s +. v.rm_stats.Memmodel.Engine.wall_s)
        verdicts;
    visited = stats_sum (fun s -> s.Memmodel.Engine.visited);
    digest;
    mismatches = !mismatches;
    gc = (g0, g1) },
  verdicts

let check_sweep problems s =
  if s.digest <> expected_digest then
    problems := Printf.sprintf "sweep digest %s, expected %s" s.digest
        expected_digest :: !problems;
  if s.visited <> expected_visited then
    problems := Printf.sprintf "sweep visited %d states, expected %d"
        s.visited expected_visited :: !problems

let n = Array.length corpus

(* p90 needs ten samples beyond it. *)
let min_entries = 100

let run ~t_start ~seed ~seconds =
  let st = Random.State.make [| seed; 1 |] in
  let problems = ref [] in
  (* set-up: the program's start and one untimed warm-up sweep *)
  let warm, _ = sweep (shuffle st (Array.init n Fun.id)) in
  check_sweep problems warm;
  let setup_s = now () -. t_start in
  let sweeps = ref [] in
  let busy = ref 0. in
  while !busy < seconds || List.length !sweeps * n < min_entries do
    let s, _ = sweep (shuffle st (Array.init n Fun.id)) in
    check_sweep problems s;
    busy := !busy +. s.wall;
    sweeps := s :: !sweeps
  done;
  let sweeps = List.rev !sweeps in
  let entries = List.concat_map (fun s -> Array.to_list s.entry_s) sweeps in
  let ms = sorted (List.map (fun x -> x *. 1000.) entries) in
  let attempted = List.length entries in
  let failed = List.fold_left (fun a s -> a + s.mismatches) 0 sweeps in
  let visited = List.fold_left (fun a s -> a + s.visited) 0 sweeps in
  let sweep_s = median (List.map (fun s -> s.wall) sweeps) in
  { correct = !problems = [];
    attempted;
    failed;
    problems = !problems;
    metrics =
      [ metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MB" (peak_rss_mb 0);
        metric "pass_ratio" "ratio"
          (1. -. (float failed /. float attempted));
        metric "rate_per_s" "1/s" (float n /. sweep_s);
        metric "p50_ms" "ms" (percentile ms 50.);
        metric "p90_ms" "ms" (percentile ms 90.) ];
    detail =
      [ ("workload", Json.String "refine-sweep");
        ("operation", Json.String "one corpus entry's refinement check");
        ("sweeps", Json.Int (List.length sweeps));
        ("entries", Json.Int attempted);
        ("p90_samples_beyond", Json.Int (beyond attempted 90.));
        ("sweep_s", Json.Float sweep_s);
        ("sweep_walls_s", Json.List (List.map (fun s -> Json.Float s.wall) sweeps));
        ("states_per_s", Json.Float (float visited /. !busy));
        ("digest", Json.String (List.hd sweeps).digest);
        ("visited_per_sweep", Json.Int (List.hd sweeps).visited) ] }

(* ---- traced run ----------------------------------------------------------- *)

let rounds = 3

let gc_words_mb w = float w *. float (Sys.word_size / 8) /. 1048576.

(* The calls Refinement.check makes, with its arguments, timed one by one
   from outside: per entry, its name and the seconds in Sc.run_stats and
   in Promising.run_full. *)
let decompose ~req order =
  Array.to_list
    (Array.map
       (fun i ->
         let e = corpus.(i) in
         let prog = e.Kernel_progs.prog in
         let _, sc =
           time (fun () ->
               Span.run ~req "memmodel.sc.run_stats" (fun _ ->
                   Memmodel.Sc.run_stats ~fuel:8 prog))
         in
         let _, rm =
           time (fun () ->
               Span.run ~req "memmodel.promising.run_full" (fun _ ->
                   Memmodel.Promising.run_full ~config:e.rm_config prog))
         in
         (e.name, sc, rm))
       order)

let traced ~seed =
  let st = Random.State.make [| seed; 2 |] in
  let order = shuffle st (Array.init n Fun.id) in
  let problems = ref [] in
  ignore (sweep order) (* warm-up *);
  Span.reset ();
  (* Each round runs an untraced sweep, a traced sweep, and the traced
     sweep's calls one by one. Figures compared within a round were
     measured seconds apart, so the machine's drift cancels better than
     across rounds; every figure is the median over the rounds. *)
  let last = ref None in
  let rounds =
    List.init rounds (fun k ->
        let u, _ = sweep order in
        Span.enabled := true;
        let t, verdicts = sweep ~req:((2 * k) + 1) order in
        let parts = decompose ~req:((2 * k) + 2) order in
        Span.enabled := false;
        check_sweep problems t;
        last := Some (t, verdicts);
        (u.wall, t.wall, parts))
  in
  let spans = Span.all () in
  let med f = median (List.map f rounds) in
  let sum_sc = List.fold_left (fun a (_, x, _) -> a +. x) 0. in
  let sum_rm = List.fold_left (fun a (_, _, x) -> a +. x) 0. in
  let t_wall = med (fun (_, t, _) -> t) in
  let s, verdicts = Option.get !last in
  let g0, g1 = s.gc in
  let per name =
    metric
      ("refine-sweep.memmodel.promising.busy_s." ^ name)
      "s"
      (med (fun (_, _, p) ->
           match List.find_opt (fun (n, _, _) -> n = name) p with
           | Some (_, _, x) -> x
           | None -> nan))
  in
  let sum f =
    Array.fold_left
      (fun a (v : Vrm.Refinement.verdict) ->
        a + f v.sc_stats + f v.rm_stats)
      0 verdicts
  in
  let open Memmodel.Engine in
  let cert_calls = sum (fun x -> x.cert_calls) in
  let cert_hits = sum (fun x -> x.cert_hits) in
  let metrics =
    [ metric "refine-sweep.sweep_s" "s" t_wall;
      metric "refine-sweep.trace_overhead_ratio" "ratio"
        (med (fun (u, t, _) -> t /. u) -. 1.);
      metric "refine-sweep.memmodel.promising.busy_s" "s"
        (med (fun (_, _, p) -> sum_rm p));
      per "share-page";
      per "vm-boot-state";
      per "gen_vmid";
      per "mcs-counter";
      metric "refine-sweep.memmodel.sc.busy_s" "s" (med (fun (_, _, p) -> sum_sc p));
      metric "refine-sweep.refinement.self_s" "s"
        (med (fun (_, t, p) -> t -. sum_sc p -. sum_rm p));
      metric "refine-sweep.accounted_ratio" "ratio"
        (med (fun (_, t, p) -> (sum_sc p +. sum_rm p) /. t));
      metric "refine-sweep.memmodel.visited" "count" (float s.visited);
      metric "refine-sweep.memmodel.por_pruned" "count"
        (float (sum (fun x -> x.por_pruned)));
      metric "refine-sweep.memmodel.cert_calls" "count" (float cert_calls);
      metric "refine-sweep.memmodel.cert_hits" "count" (float cert_hits);
      metric "refine-sweep.memmodel.cert_hit_ratio" "ratio"
        (float cert_hits /. float cert_calls);
      metric "refine-sweep.memmodel.minor_words_per_state" "words"
        (float (sum (fun x -> x.minor_words)) /. float s.visited);
      metric "refine-sweep.states_per_s" "1/s" (float s.visited /. t_wall);
      metric "refine-sweep.gc.minor_collections" "count"
        (float (g1.Gc.minor_collections - g0.Gc.minor_collections));
      metric "refine-sweep.gc.major_collections" "count"
        (float (g1.Gc.major_collections - g0.Gc.major_collections));
      metric "refine-sweep.gc.top_heap_mb" "MB"
        (gc_words_mb g1.Gc.top_heap_words) ]
  in
  (metrics, spans, !problems)
