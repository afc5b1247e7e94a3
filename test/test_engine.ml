(* Golden-parity tests for the shared exploration engine (Engine.Make).

   The digests below were captured from the pre-engine executors — each
   model ran its own private DFS+memoization loop — immediately before
   the refactor onto [Engine]. The engine-based executors must reproduce
   every behavior set bit-identically (digest of the canonical
   [Behavior.pp] rendering), including the exact ownership violation the
   push/pull checker reports first. The remaining tests check that
   parallel search ([~jobs]) returns the sequential behavior sets and
   that the exploration statistics are sane. *)

open Memmodel

let digest_behaviors (b : Behavior.t) : string =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Behavior.pp b))

(* (model, program, expected) — captured from the seed executors *)
let golden =
  [
    ("sc", "example1-ooo-write", "99e322099b2c53283986b87c0a014695");
    ("tso", "example1-ooo-write", "99e322099b2c53283986b87c0a014695");
    ("promising", "example1-ooo-write", "2b4469770ae30fca187483d89d7ba355");
    ("sc", "example2-vmid-nobarrier", "cc50367be32898f6e26a850b0a8ccc59");
    ("tso", "example2-vmid-nobarrier", "cc50367be32898f6e26a850b0a8ccc59");
    ("promising", "example2-vmid-nobarrier", "7bd8fdd08b7ba7ac98c273106bf31ac2");
    ("sc", "example2-vmid-linux-lock", "cc50367be32898f6e26a850b0a8ccc59");
    ("tso", "example2-vmid-linux-lock", "cc50367be32898f6e26a850b0a8ccc59");
    ("promising", "example2-vmid-linux-lock", "48337ca23bd62408c01757b14db00804");
    ("sc", "example3-vcpu-nobarrier", "c658069ca13752d2c6185b6c6a438482");
    ("tso", "example3-vcpu-nobarrier", "c658069ca13752d2c6185b6c6a438482");
    ("promising", "example3-vcpu-nobarrier", "cd08ee6c6e219667c3a72e50bdf459f7");
    ("sc", "example3-vcpu-relacq", "c658069ca13752d2c6185b6c6a438482");
    ("tso", "example3-vcpu-relacq", "c658069ca13752d2c6185b6c6a438482");
    ("promising", "example3-vcpu-relacq", "c658069ca13752d2c6185b6c6a438482");
    ("sc", "example7-user-to-kernel", "aa3c1fb2fb1b3866609db387b9380e54");
    ("tso", "example7-user-to-kernel", "aa3c1fb2fb1b3866609db387b9380e54");
    ("promising", "example7-user-to-kernel", "8f806f369587833b144abcded3d62ed5");
    ("sc", "mp-plain", "1fc71a64d57b706e44324895c1fd6b47");
    ("tso", "mp-plain", "1fc71a64d57b706e44324895c1fd6b47");
    ("promising", "mp-plain", "8a1956d204a27c98cd7a5c22d3f822d6");
    ("sc", "mp-dmb", "1fc71a64d57b706e44324895c1fd6b47");
    ("tso", "mp-dmb", "1fc71a64d57b706e44324895c1fd6b47");
    ("promising", "mp-dmb", "1fc71a64d57b706e44324895c1fd6b47");
    ("sc", "mp-rel-acq", "1fc71a64d57b706e44324895c1fd6b47");
    ("tso", "mp-rel-acq", "1fc71a64d57b706e44324895c1fd6b47");
    ("promising", "mp-rel-acq", "1fc71a64d57b706e44324895c1fd6b47");
    ("sc", "sb-plain", "2fadd2cef85290b12756d3c89f689d1a");
    ("tso", "sb-plain", "36f6b4f1b45f73a9114ef19366b8163c");
    ("promising", "sb-plain", "36f6b4f1b45f73a9114ef19366b8163c");
    ("sc", "sb-dmb", "2fadd2cef85290b12756d3c89f689d1a");
    ("tso", "sb-dmb", "2fadd2cef85290b12756d3c89f689d1a");
    ("promising", "sb-dmb", "2fadd2cef85290b12756d3c89f689d1a");
    ("sc", "lb-data", "7c83c1216d153afc32725fcea4cc28be");
    ("tso", "lb-data", "7c83c1216d153afc32725fcea4cc28be");
    ("promising", "lb-data", "7c83c1216d153afc32725fcea4cc28be");
    ("sc", "corr", "b770567301caf5eb129c8c144d47b730");
    ("tso", "corr", "b770567301caf5eb129c8c144d47b730");
    ("promising", "corr", "b770567301caf5eb129c8c144d47b730");
    ("sc", "mp-dmb-addr", "a487374b14a070aaf90e4600a9a37966");
    ("tso", "mp-dmb-addr", "a487374b14a070aaf90e4600a9a37966");
    ("promising", "mp-dmb-addr", "a487374b14a070aaf90e4600a9a37966");
    ("sc", "s-plain", "54c1dbcbf906a10e77b5e654beaa10fa");
    ("tso", "s-plain", "54c1dbcbf906a10e77b5e654beaa10fa");
    ("promising", "s-plain", "2664ecbfbb4e3219001881f95d3ec8ec");
    ("sc", "s-dmb", "54c1dbcbf906a10e77b5e654beaa10fa");
    ("tso", "s-dmb", "54c1dbcbf906a10e77b5e654beaa10fa");
    ("promising", "s-dmb", "54c1dbcbf906a10e77b5e654beaa10fa");
    ("sc", "2+2w-plain", "4fe5f2f1167674eae7f11175aed10525");
    ("tso", "2+2w-plain", "4fe5f2f1167674eae7f11175aed10525");
    ("promising", "2+2w-plain", "1113e7e201844f72ce566b35426dc5c3");
    ("sc", "2+2w-dmbst", "4fe5f2f1167674eae7f11175aed10525");
    ("tso", "2+2w-dmbst", "4fe5f2f1167674eae7f11175aed10525");
    ("promising", "2+2w-dmbst", "4fe5f2f1167674eae7f11175aed10525");
    ("sc", "wrc-plain", "fc117c6eaebeec0a24117d84f6474bbd");
    ("tso", "wrc-plain", "fc117c6eaebeec0a24117d84f6474bbd");
    ("promising", "wrc-plain", "69e09ce614011f6e040bf34c0af62bf7");
    ("sc", "wrc-dmb", "fc117c6eaebeec0a24117d84f6474bbd");
    ("tso", "wrc-dmb", "fc117c6eaebeec0a24117d84f6474bbd");
    ("promising", "wrc-dmb", "fc117c6eaebeec0a24117d84f6474bbd");
    ("sc", "wrc-addr", "092bf53ddcf4e7e0885a73578c14959f");
    ("tso", "wrc-addr", "092bf53ddcf4e7e0885a73578c14959f");
    ("promising", "wrc-addr", "092bf53ddcf4e7e0885a73578c14959f");
    ("sc", "isa2-dmb", "fc117c6eaebeec0a24117d84f6474bbd");
    ("tso", "isa2-dmb", "fc117c6eaebeec0a24117d84f6474bbd");
    ("promising", "isa2-dmb", "fc117c6eaebeec0a24117d84f6474bbd");
    ("sc", "mp-dmb-ctrl", "defb4a92ef00e582140d49b3daa905fd");
    ("tso", "mp-dmb-ctrl", "defb4a92ef00e582140d49b3daa905fd");
    ("promising", "mp-dmb-ctrl", "225a0f95e4b95a74ac0dfd1c450da8b9");
    ("sc", "mp-dmb-ctrl-isb", "defb4a92ef00e582140d49b3daa905fd");
    ("tso", "mp-dmb-ctrl-isb", "defb4a92ef00e582140d49b3daa905fd");
    ("promising", "mp-dmb-ctrl-isb", "defb4a92ef00e582140d49b3daa905fd");
    ("sc", "lb-ctrl", "864e63470fbdb68da2f9eeba9e8f1e9a");
    ("tso", "lb-ctrl", "864e63470fbdb68da2f9eeba9e8f1e9a");
    ("promising", "lb-ctrl", "864e63470fbdb68da2f9eeba9e8f1e9a");
    ("sc", "cowr", "9ca172a8e46d8a166dd9db7638bf041f");
    ("tso", "cowr", "9ca172a8e46d8a166dd9db7638bf041f");
    ("promising", "cowr", "9ca172a8e46d8a166dd9db7638bf041f");
    ("sc", "corw1", "3ae0377195d1782cf84796589edcc3f0");
    ("tso", "corw1", "3ae0377195d1782cf84796589edcc3f0");
    ("promising", "corw1", "3ae0377195d1782cf84796589edcc3f0");
    ("sc", "sb-one-dmb", "2fadd2cef85290b12756d3c89f689d1a");
    ("tso", "sb-one-dmb", "36f6b4f1b45f73a9114ef19366b8163c");
    ("promising", "sb-one-dmb", "36f6b4f1b45f73a9114ef19366b8163c");
    ("sc", "rel-acq-two-fields", "310ab5cfccacb55d6aff4543547b8e6c");
    ("tso", "rel-acq-two-fields", "310ab5cfccacb55d6aff4543547b8e6c");
    ("promising", "rel-acq-two-fields", "310ab5cfccacb55d6aff4543547b8e6c");
    ("sc", "r-plain", "34b70a1ef20c848c98bea1cd2b20c18f");
    ("tso", "r-plain", "fda8c281912c9b76c7b16bf11f306852");
    ("promising", "r-plain", "fda8c281912c9b76c7b16bf11f306852");
    ("sc", "r-dmb", "34b70a1ef20c848c98bea1cd2b20c18f");
    ("tso", "r-dmb", "34b70a1ef20c848c98bea1cd2b20c18f");
    ("promising", "r-dmb", "34b70a1ef20c848c98bea1cd2b20c18f");
    ("sc", "corr-total", "d9179033498b58655f3dbde7c957eac8");
    ("tso", "corr-total", "d9179033498b58655f3dbde7c957eac8");
    ("promising", "corr-total", "d9179033498b58655f3dbde7c957eac8");
    ("sc", "sb-rel-acq", "2fadd2cef85290b12756d3c89f689d1a");
    ("tso", "sb-rel-acq", "36f6b4f1b45f73a9114ef19366b8163c");
    ("promising", "sb-rel-acq", "2fadd2cef85290b12756d3c89f689d1a");
    ("sc", "gen_vmid", "cc50367be32898f6e26a850b0a8ccc59");
    ("promising", "gen_vmid", "48337ca23bd62408c01757b14db00804");
    ("pushpull", "gen_vmid", "ok:cc50367be32898f6e26a850b0a8ccc59");
    ("sc", "vcpu-switch", "b3a3ee4b0fd10adbe42f755a2dcff391");
    ("promising", "vcpu-switch", "b3a3ee4b0fd10adbe42f755a2dcff391");
    ("pushpull", "vcpu-switch", "ok:b3a3ee4b0fd10adbe42f755a2dcff391");
    ("sc", "vm-boot-state", "3b6bbaf691e96ae2ed86a4562ecefea3");
    ("promising", "vm-boot-state", "984ff0b9f1e9586ba9d564f79bb8f66a");
    ("pushpull", "vm-boot-state", "ok:3b6bbaf691e96ae2ed86a4562ecefea3");
    ("sc", "share-page", "140aeaea0c804c205a9ea7ea229c9584");
    ("promising", "share-page", "88ecba2179b8a248030dc94db2f4fdf5");
    ("pushpull", "share-page", "ok:140aeaea0c804c205a9ea7ea229c9584");
    ("sc", "mcs-counter", "965cbd21d5566170706e0622c244e20c");
    ("promising", "mcs-counter", "965cbd21d5566170706e0622c244e20c");
    ("pushpull", "mcs-counter", "ok:965cbd21d5566170706e0622c244e20c");
    ("sc", "mcs-handoff", "eddf645b902b9c57eb5b2940e9ce21b7");
    ("promising", "mcs-handoff", "eddf645b902b9c57eb5b2940e9ce21b7");
    ("pushpull", "mcs-handoff", "ok:eddf645b902b9c57eb5b2940e9ce21b7");
    ("sc", "gen_vmid-nobarrier", "cc50367be32898f6e26a850b0a8ccc59");
    ("promising", "gen_vmid-nobarrier", "7bd8fdd08b7ba7ac98c273106bf31ac2");
    ("pushpull", "gen_vmid-nobarrier", "ok:cc50367be32898f6e26a850b0a8ccc59");
    ("sc", "vcpu-switch-nobarrier", "b3a3ee4b0fd10adbe42f755a2dcff391");
    ("promising", "vcpu-switch-nobarrier", "ea03959bf7d75f90a5bf86aa584b3797");
    ("pushpull", "vcpu-switch-nobarrier", "ok:b3a3ee4b0fd10adbe42f755a2dcff391");
    ("sc", "mcs-handoff-nobarrier", "eddf645b902b9c57eb5b2940e9ce21b7");
    ("promising", "mcs-handoff-nobarrier", "b65993874d3e7f38188d76355d677878");
    ("pushpull", "mcs-handoff-nobarrier", "ok:eddf645b902b9c57eb5b2940e9ce21b7");
    ("sc", "unlocked-counter", "73ef2ef515dd0086a2b64b8df39df110");
    ("promising", "unlocked-counter", "73ef2ef515dd0086a2b64b8df39df110");
    ("pushpull", "unlocked-counter", "violation:CPU 1: access to a shared location not owned on base counter (shared base accessed outside pull/push section)");
    ("sc", "push-without-pull", "0b209fbb1ee44d0028de5297ee9ec421");
    ("promising", "push-without-pull", "0b209fbb1ee44d0028de5297ee9ec421");
    ("pushpull", "push-without-pull", "violation:CPU 0: push of a location not owned by this CPU on base counter (base not owned by pushing CPU)");
  ]

let litmus = Paper_examples.all @ Litmus_suite.all
let kernel = Sekvm.Kernel_progs.corpus @ Sekvm.Kernel_progs.buggy_corpus

(* Canonical rendering of a push/pull verdict, shared by the golden and
   POR-parity tests: violations render through [pp_violation], so parity
   here means the exact first violation string. *)
let pp_check = function
  | Pushpull.Drf_ok b -> "ok:" ^ digest_behaviors b
  | Pushpull.Drf_violation v ->
      Format.asprintf "violation:%a" Pushpull.pp_violation v
  | Pushpull.Drf_kernel_panic _ -> "panic"

(* Recompute every golden entry with the engine-based executors, in the
   same order the goldens were captured. *)
let computed () =
  List.concat_map
    (fun (t : Litmus.t) ->
      let p = t.Litmus.prog in
      [ ("sc", p.Prog.name, digest_behaviors (Sc.run p));
        ("tso", p.Prog.name, digest_behaviors (Tso.run ~fuel:3 p));
        ( "promising",
          p.Prog.name,
          digest_behaviors (Promising.run ?config:t.Litmus.rm_config p) ) ])
    litmus
  @ List.concat_map
      (fun (e : Sekvm.Kernel_progs.entry) ->
        let p = e.Sekvm.Kernel_progs.prog in
        [ ("sc", e.Sekvm.Kernel_progs.name, digest_behaviors (Sc.run p));
          ( "promising",
            e.Sekvm.Kernel_progs.name,
            digest_behaviors
              (Promising.run ~config:e.Sekvm.Kernel_progs.rm_config p) );
          ( "pushpull",
            e.Sekvm.Kernel_progs.name,
            pp_check
              (Pushpull.check ~exempt:e.Sekvm.Kernel_progs.exempt
                 ~initial_owners:e.Sekvm.Kernel_progs.initial_owners p) ) ])
      kernel

let test_golden_parity () =
  let got = computed () in
  Alcotest.(check int) "corpus size unchanged" (List.length golden)
    (List.length got);
  List.iter2
    (fun (m, n, want) (m', n', have) ->
      Alcotest.(check string)
        (Printf.sprintf "%s/%s entry" m n)
        (m ^ "/" ^ n) (m' ^ "/" ^ n');
      Alcotest.(check string) (Printf.sprintf "%s/%s behaviors" m n) want have)
    golden got

(* jobs=1 and jobs=4 must produce identical behavior sets: the search is
   over a pure transition system, so the union of the BFS-prefix and
   per-domain DFS outcomes is schedule-independent. *)
let test_jobs_equivalence () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = t.Litmus.prog in
      Alcotest.(check bool)
        (p.Prog.name ^ " sc jobs=4")
        true
        (Behavior.equal (Sc.run p) (Sc.run ~jobs:4 p));
      Alcotest.(check bool)
        (p.Prog.name ^ " tso jobs=4")
        true
        (Behavior.equal (Tso.run ~fuel:3 p) (Tso.run ~fuel:3 ~jobs:4 p)))
    litmus;
  List.iter
    (fun (t : Litmus.t) ->
      let p = t.Litmus.prog in
      Alcotest.(check bool)
        (p.Prog.name ^ " promising jobs=4")
        true
        (Behavior.equal
           (Promising.run ?config:t.Litmus.rm_config p)
           (Promising.run ?config:t.Litmus.rm_config ~jobs:4 p)))
    Paper_examples.all

let test_jobs_equivalence_pushpull () =
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      let p = e.Sekvm.Kernel_progs.prog in
      let run jobs =
        Pushpull.check ~exempt:e.Sekvm.Kernel_progs.exempt
          ~initial_owners:e.Sekvm.Kernel_progs.initial_owners ~jobs p
      in
      let same =
        match (run 1, run 4) with
        | Pushpull.Drf_ok a, Pushpull.Drf_ok b -> Behavior.equal a b
        | Pushpull.Drf_violation _, Pushpull.Drf_violation _ -> true
        | Pushpull.Drf_kernel_panic _, Pushpull.Drf_kernel_panic _ -> true
        | _ -> false
      in
      Alcotest.(check bool)
        (e.Sekvm.Kernel_progs.name ^ " pushpull jobs=4")
        true same)
    kernel

let test_stats_sanity () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = t.Litmus.prog in
      let check_stats model (b, (s : Engine.stats)) =
        let name what = Printf.sprintf "%s %s %s" p.Prog.name model what in
        Alcotest.(check bool)
          (name "visited >= outcomes")
          true
          (s.Engine.visited >= Behavior.cardinal b);
        Alcotest.(check bool)
          (name "dedup >= 0")
          true (s.Engine.dedup_hits >= 0);
        (* every visited state except the root was reached by an
           enumerated transition *)
        Alcotest.(check bool)
          (name "transitions >= visited - 1")
          true
          (s.Engine.transitions >= s.Engine.visited - 1);
        Alcotest.(check int)
          (name "outcomes field")
          (Behavior.cardinal b) s.Engine.outcomes;
        Alcotest.(check bool) (name "wall >= 0") true (s.Engine.wall_s >= 0.)
      in
      check_stats "sc" (Sc.run_stats p);
      check_stats "promising"
        (Promising.run_stats ?config:t.Litmus.rm_config p))
    Paper_examples.all;
  (* the Litmus harness surfaces the same stats *)
  let r = Litmus.run Paper_examples.example1 in
  Alcotest.(check bool) "litmus sc stats populated" true
    (r.Litmus.sc_stats.Engine.visited > 0);
  Alcotest.(check bool) "litmus rm stats populated" true
    (r.Litmus.rm_stats.Engine.visited > 0)

(* POR must not change any behavior set: for every litmus program and
   kernel corpus entry, the SC and TSO digests with POR on equal the
   exact-search digests — sequentially and at jobs=4 (work stealing). *)
let test_por_equivalence () =
  let progs =
    List.map (fun (t : Litmus.t) -> t.Litmus.prog) litmus
    @ List.map (fun (e : Sekvm.Kernel_progs.entry) -> e.Sekvm.Kernel_progs.prog)
        kernel
  in
  List.iter
    (fun (p : Prog.t) ->
      let sc_exact = digest_behaviors (Sc.run ~por:false p) in
      let tso_exact = digest_behaviors (Tso.run ~fuel:3 ~por:false p) in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s sc por jobs=%d" p.Prog.name jobs)
            sc_exact
            (digest_behaviors (Sc.run ~jobs ~por:true p));
          Alcotest.(check string)
            (Printf.sprintf "%s tso por jobs=%d" p.Prog.name jobs)
            tso_exact
            (digest_behaviors (Tso.run ~fuel:3 ~jobs ~por:true p)))
        [ 1; 4 ];
      Alcotest.(check string)
        (p.Prog.name ^ " sc exact jobs=4")
        sc_exact
        (digest_behaviors (Sc.run ~jobs:4 ~por:false p)))
    progs

(* POR must actually reduce: over each corpus, every model visits
   strictly fewer states with POR on, and the prune counter is nonzero.
   (Per-program this can tie — a two-thread racy program may have no
   ample or sleepable step — so we assert on the corpus sum. Promising
   entries under [strict_certification] run exact either way and
   contribute equally to both sides.) *)
let test_por_reduces () =
  let sum f =
    List.fold_left
      (fun (on, off, pruned) (t : Litmus.t) ->
        let _, (s_on : Engine.stats) = f ~por:true t in
        let _, (s_off : Engine.stats) = f ~por:false t in
        ( on + s_on.Engine.visited,
          off + s_off.Engine.visited,
          pruned + s_on.Engine.por_pruned ))
      (0, 0, 0) litmus
  in
  let check name (on, off, pruned) =
    Alcotest.(check bool)
      (name ^ ": POR visits strictly fewer states")
      true (on < off);
    Alcotest.(check bool) (name ^ ": POR prunes transitions") true (pruned > 0)
  in
  check "sc" (sum (fun ~por t -> Sc.run_stats ~por t.Litmus.prog));
  check "tso" (sum (fun ~por t -> Tso.run_stats ~fuel:3 ~por t.Litmus.prog));
  check "promising"
    (sum (fun ~por t ->
         Promising.run_stats ?config:t.Litmus.rm_config ~por t.Litmus.prog));
  check "pushpull"
    (List.fold_left
       (fun (on, off, pruned) (e : Sekvm.Kernel_progs.entry) ->
         let run por =
           Pushpull.check_stats ~exempt:e.Sekvm.Kernel_progs.exempt
             ~initial_owners:e.Sekvm.Kernel_progs.initial_owners ~por
             e.Sekvm.Kernel_progs.prog
         in
         let _, (s_on : Engine.stats) = run true in
         let _, (s_off : Engine.stats) = run false in
         ( on + s_on.Engine.visited,
           off + s_off.Engine.visited,
           pruned + s_on.Engine.por_pruned ))
       (0, 0, 0) Sekvm.Kernel_progs.corpus)

(* The certification-aware Promising oracle must not change any behavior
   set: with POR forced on and off, every litmus program and kernel
   entry (boundary and lint corpora included) lands on one digest —
   combined with the golden table above, both toggles reproduce the
   seed digests exactly. *)
let test_por_parity_promising () =
  List.iter
    (fun (t : Litmus.t) ->
      let p = t.Litmus.prog in
      let d por =
        digest_behaviors (Promising.run ?config:t.Litmus.rm_config ~por p)
      in
      Alcotest.(check string)
        (p.Prog.name ^ " promising por on = off")
        (d false) (d true))
    litmus;
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      let d por =
        digest_behaviors
          (Promising.run ~config:e.Sekvm.Kernel_progs.rm_config ~por
             e.Sekvm.Kernel_progs.prog)
      in
      Alcotest.(check string)
        (e.Sekvm.Kernel_progs.name ^ " promising por on = off")
        (d false) (d true))
    (Sekvm.Kernel_progs.corpus @ Sekvm.Kernel_progs.buggy_corpus
   @ Sekvm.Kernel_progs.boundary_corpus @ Sekvm.Kernel_progs.lint_corpus)

(* Same for the ownership oracle: violating transitions carry global
   footprints and are never slept, so the sequential search must report
   the exact same first violation (string-for-string) with POR on or
   off. At jobs=4 the winning schedule is racy, so only the
   classification (which constructor; for violations, which kind on
   which base) is asserted. *)
let test_por_parity_pushpull () =
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      let run ~jobs por =
        Pushpull.check ~exempt:e.Sekvm.Kernel_progs.exempt
          ~initial_owners:e.Sekvm.Kernel_progs.initial_owners ~jobs ~por
          e.Sekvm.Kernel_progs.prog
      in
      let want = run ~jobs:1 false in
      Alcotest.(check string)
        (e.Sekvm.Kernel_progs.name ^ " pushpull por on = off")
        (pp_check want)
        (pp_check (run ~jobs:1 true));
      let classified =
        match (want, run ~jobs:4 true) with
        | Pushpull.Drf_ok a, Pushpull.Drf_ok b -> Behavior.equal a b
        | Pushpull.Drf_violation a, Pushpull.Drf_violation b ->
            a.Pushpull.v_kind = b.Pushpull.v_kind
            && a.Pushpull.v_base = b.Pushpull.v_base
        | Pushpull.Drf_kernel_panic a, Pushpull.Drf_kernel_panic b -> a = b
        | _ -> false
      in
      Alcotest.(check bool)
        (e.Sekvm.Kernel_progs.name ^ " pushpull por jobs=4 classification")
        true classified)
    kernel

(* A deadline already in the past must stop a jobs=4 work-stealing
   search promptly: budget_hit set, almost nothing visited. *)
let test_parallel_cancellation () =
  let p = Paper_examples.example1.Litmus.prog in
  let deadline = Unix.gettimeofday () -. 1.0 in
  let _, (s : Engine.stats) = Sc.run_stats ~jobs:4 ~deadline p in
  Alcotest.(check bool) "budget_hit set" true s.Engine.budget_hit;
  Alcotest.(check bool)
    (Printf.sprintf "visited tiny (%d)" s.Engine.visited)
    true
    (s.Engine.visited <= 8);
  (* same through the Promising executor (lazy expansion path) *)
  let _, (sp : Engine.stats) = Promising.run_stats ~jobs:4 ~deadline p in
  Alcotest.(check bool) "promising budget_hit set" true sp.Engine.budget_hit

(* A deadline expiring mid-search must classify the partial result the
   same way regardless of partitioning: a refinement check cancelled at
   jobs=1 and at jobs=4 both flag budget_hit and agree on the verdict
   classification (with an already-past deadline both sides are cut at
   the root, so the comparison is deterministic). *)
let test_deadline_classification () =
  let e = List.hd kernel in
  let p = e.Sekvm.Kernel_progs.prog
  and config = e.Sekvm.Kernel_progs.rm_config in
  let deadline = Unix.gettimeofday () -. 1.0 in
  let v1 = Vrm.Refinement.check ~config ~jobs:1 ~deadline p in
  let v4 = Vrm.Refinement.check ~config ~jobs:4 ~deadline p in
  Alcotest.(check bool) "jobs=1 rm budget_hit" true
    v1.Vrm.Refinement.rm_stats.Engine.budget_hit;
  Alcotest.(check bool) "jobs=4 rm budget_hit" true
    v4.Vrm.Refinement.rm_stats.Engine.budget_hit;
  Alcotest.(check bool) "holds classification equal" v1.Vrm.Refinement.holds
    v4.Vrm.Refinement.holds;
  Alcotest.(check string) "cancelled rm digests equal"
    (digest_behaviors v1.Vrm.Refinement.rm)
    (digest_behaviors v4.Vrm.Refinement.rm);
  Alcotest.(check string) "cancelled sc digests equal"
    (digest_behaviors v1.Vrm.Refinement.sc)
    (digest_behaviors v4.Vrm.Refinement.sc)

(* max_states is one global budget in parallel mode: jobs=4 with a tiny
   budget stops near it, not at 4x it. *)
let test_global_budget () =
  let p = Paper_examples.example1.Litmus.prog in
  let cfg = { Promising.default_config with max_promises = 2 } in
  let exact, (full : Engine.stats) = Promising.run_stats ~config:cfg p in
  ignore exact;
  let budget = max 4 (full.Engine.visited / 4) in
  let _, (s : Engine.stats) =
    Promising.run_stats ~config:{ cfg with max_states = budget } ~jobs:4 p
  in
  Alcotest.(check bool) "budget_hit set" true s.Engine.budget_hit;
  (* each domain may overshoot by the frames already in flight, but not
     by another domain's worth of private budget *)
  Alcotest.(check bool)
    (Printf.sprintf "visited %d near budget %d" s.Engine.visited budget)
    true
    (s.Engine.visited < 2 * budget)

(* Certification memoization must be verdict-preserving: for every
   litmus program and every kernel corpus entry (including the boundary
   and lint corpora), the Promising behavior set with the cert cache on
   is bit-identical to the set with it off. *)
let all_kernel =
  Sekvm.Kernel_progs.corpus @ Sekvm.Kernel_progs.buggy_corpus
  @ Sekvm.Kernel_progs.boundary_corpus @ Sekvm.Kernel_progs.lint_corpus

let test_cert_cache_equivalence () =
  let check_prog name config p =
    let digest cert_cache =
      digest_behaviors
        (Promising.run ~config:{ config with Promising.cert_cache } p)
    in
    Alcotest.(check string) (name ^ " cert-cache on = off") (digest false)
      (digest true)
  in
  List.iter
    (fun (t : Litmus.t) ->
      let config =
        Option.value ~default:Promising.default_config t.Litmus.rm_config
      in
      check_prog t.Litmus.prog.Prog.name config t.Litmus.prog)
    litmus;
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      check_prog e.Sekvm.Kernel_progs.name e.Sekvm.Kernel_progs.rm_config
        e.Sekvm.Kernel_progs.prog)
    all_kernel

(* The cache must actually field queries on the kernel corpus (lock
   promises revisit equivalent certification problems), answering at
   least half of them, and report nothing when disabled. *)
let test_cert_cache_hits () =
  let calls, hits =
    List.fold_left
      (fun (c, h) (e : Sekvm.Kernel_progs.entry) ->
        let _, (s : Engine.stats) =
          Promising.run_stats ~config:e.Sekvm.Kernel_progs.rm_config
            e.Sekvm.Kernel_progs.prog
        in
        (c + s.Engine.cert_calls, h + s.Engine.cert_hits))
      (0, 0) kernel
  in
  Alcotest.(check bool) "cert_calls > 0 over the corpus" true (calls > 0);
  Alcotest.(check bool) "cert_hits > 0 over the corpus" true (hits > 0);
  Alcotest.(check bool) "hits <= calls" true (hits <= calls);
  Alcotest.(check bool) "at least half the calls hit" true (2 * hits >= calls);
  let e = List.hd kernel in
  let _, (off : Engine.stats) =
    Promising.run_stats
      ~config:
        { e.Sekvm.Kernel_progs.rm_config with Promising.cert_cache = false }
      e.Sekvm.Kernel_progs.prog
  in
  Alcotest.(check int) "cache off reports zero calls" 0 off.Engine.cert_calls;
  (* the Litmus harness override reaches the model *)
  let r = Litmus.run ~cert_cache:false Paper_examples.example1 in
  Alcotest.(check int) "litmus --no-cert-cache reports zero calls" 0
    r.Litmus.rm_stats.Engine.cert_calls

(* Thread-symmetry reduction must not change any behavior set: for
   every litmus program and kernel entry across all four corpora (plus
   the sym-stress family itself), the SC, TSO and Promising digests
   with orbit canonicalization on equal the plain-key digests —
   combined with the golden table above, sym-on reproduces the seed
   digests exactly. Promising entries under [strict_certification]
   force canonicalization off internally and trivially tie. *)
let test_sym_parity_models () =
  let progs =
    List.map (fun (t : Litmus.t) -> (t.Litmus.prog, t.Litmus.rm_config)) litmus
    @ List.map
        (fun (e : Sekvm.Kernel_progs.entry) ->
          (e.Sekvm.Kernel_progs.prog, Some e.Sekvm.Kernel_progs.rm_config))
        (all_kernel @ Sekvm.Kernel_progs.sym_corpus)
  in
  List.iter
    (fun ((p : Prog.t), config) ->
      let check model d =
        Alcotest.(check string)
          (p.Prog.name ^ " " ^ model ^ " sym on = off")
          (d false) (d true)
      in
      check "sc" (fun sym -> digest_behaviors (Sc.run ~sym p));
      check "tso" (fun sym -> digest_behaviors (Tso.run ~fuel:3 ~sym p));
      check "promising" (fun sym ->
          digest_behaviors (Promising.run ?config ~sym p)))
    progs

(* Same for the ownership oracle, violation strings included: when any
   base is tracked the checker refuses to canonicalize (a collapsed
   state could alias the reported thread id), so the first violation is
   string-for-string identical with sym on or off. *)
let test_sym_parity_pushpull () =
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      let run sym =
        Pushpull.check ~exempt:e.Sekvm.Kernel_progs.exempt
          ~initial_owners:e.Sekvm.Kernel_progs.initial_owners ~sym
          e.Sekvm.Kernel_progs.prog
      in
      Alcotest.(check string)
        (e.Sekvm.Kernel_progs.name ^ " pushpull sym on = off")
        (pp_check (run false))
        (pp_check (run true)))
    (all_kernel @ Sekvm.Kernel_progs.sym_corpus)

(* The reduction must actually reduce on the family built for it: on
   every sym-stress entry one group covering all threads is detected,
   arrivals collapse, and the visited count drops — by at least 5x at
   N=4 (the committed acceptance floor; measured ~20x). With sym off
   the stats must report no groups. The engine fills the group
   statistics for every model, so SC, TSO, push/pull and Promising are
   all checked. *)
let test_sym_reduces () =
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      let p = e.Sekvm.Kernel_progs.prog in
      let name what = Printf.sprintf "%s %s" e.Sekvm.Kernel_progs.name what in
      let groups model (on : Engine.stats) (off : Engine.stats) =
        Alcotest.(check int) (name (model ^ " one group")) 1
          on.Engine.sym_groups;
        Alcotest.(check int)
          (name (model ^ " off reports no groups"))
          0 off.Engine.sym_groups;
        Alcotest.(check bool)
          (name (model ^ " collapses arrivals"))
          true
          (on.Engine.sym_collapsed > 0)
      in
      let _, (sc_on : Engine.stats) = Sc.run_stats ~sym:true p in
      let _, (sc_off : Engine.stats) = Sc.run_stats ~sym:false p in
      let _, (rm_on : Engine.stats) =
        Promising.run_stats ~config:e.Sekvm.Kernel_progs.rm_config ~sym:true p
      in
      let _, (rm_off : Engine.stats) =
        Promising.run_stats ~config:e.Sekvm.Kernel_progs.rm_config ~sym:false
          p
      in
      let tso sym = snd (Tso.run_stats ~fuel:3 ~sym p) in
      let pushpull sym =
        snd (Pushpull.check_stats ~exempt:e.Sekvm.Kernel_progs.exempt ~sym p)
      in
      groups "sc" sc_on sc_off;
      groups "tso" (tso true) (tso false);
      groups "pushpull" (pushpull true) (pushpull false);
      groups "promising" rm_on rm_off;
      Alcotest.(check bool)
        (name "sc visits fewer states")
        true
        (sc_on.Engine.visited < sc_off.Engine.visited);
      Alcotest.(check bool)
        (name "promising visits fewer states")
        true
        (rm_on.Engine.visited < rm_off.Engine.visited);
      if e.Sekvm.Kernel_progs.name = "sym-stress-4" then begin
        let ratio (on : Engine.stats) (off : Engine.stats) =
          float_of_int off.Engine.visited /. float_of_int on.Engine.visited
        in
        Alcotest.(check bool)
          (name "sc cut >= 5x at N=4")
          true
          (ratio sc_on sc_off >= 5.);
        Alcotest.(check bool)
          (name "promising cut >= 5x at N=4")
          true
          (ratio rm_on rm_off >= 5.)
      end)
    Sekvm.Kernel_progs.sym_corpus

(* Permuting the declaration order of interchangeable threads is
   invisible through the canonical quotient: every declaration order
   produces the same behavior-set digests AND the same sym-on visited
   count (the orbit representative sorts per-thread sub-keys, which
   never mention thread position, so the canonical state-key stream is
   order-independent). The threads are identical up to their declared
   tids, so the comparison alone would also pass a key that had lost
   the quotient (a key salted with thread positions, say): each order
   must therefore also show the quotient biting, sym-on SC visiting
   fewer states than sym-off. [permutation_check ~config base perm]
   compares the [perm]-reordered program against [base], Promising
   under [config]; a Promising run that hit its state budget fails the
   check, since a truncated search could hide a difference. *)
let sym_perm_entry = List.nth Sekvm.Kernel_progs.sym_corpus 1

let permutation_check ~config (base : Prog.t) =
  let run p =
    let sc, (on : Engine.stats) = Sc.run_stats ~sym:true p in
    let _, (off : Engine.stats) = Sc.run_stats ~sym:false p in
    let rm, (rm_s : Engine.stats) = Promising.run_stats ~config p in
    ( on.Engine.visited < off.Engine.visited && not rm_s.Engine.budget_hit,
      digest_behaviors sc,
      on.Engine.visited,
      digest_behaviors rm )
  in
  let want = lazy (run base) in
  fun perm ->
    let p =
      { base with Prog.threads = List.map (List.nth base.Prog.threads) perm }
    in
    let ((ok, _, _, _) as want) = Lazy.force want in
    ok && run p = want

(* Tier-1 runs the property under the sym-stress-4 entry's own
   [rm_config] (a few hundred Promising states per call); the
   default-config check is [sym_permutation_wide] below. *)
let qcheck_sym_permutation =
  let e = sym_perm_entry in
  let check =
    permutation_check ~config:e.Sekvm.Kernel_progs.rm_config
      e.Sekvm.Kernel_progs.prog
  in
  QCheck.Test.make ~count:15
    ~name:"thread permutations leave digests and canonical quotient unchanged"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      (* derive a permutation of the 4 threads from the seed via a
         Fisher-Yates pass *)
      let rng = Random.State.make [| seed |] in
      let a = [| 0; 1; 2; 3 |] in
      for i = 3 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp
      done;
      check (Array.to_list a))

(* Wide run outside the test suite: VRM_SYM_WIDE=1 (`make sym-wide`)
   checks one reversed declaration order of sym-stress-4 with Promising
   under [Promising.default_config] — about 1.8M states per run, just
   under the 2M [max_states] valve — and exits non-zero on any
   difference. *)
let sym_permutation_wide () =
  let ok =
    permutation_check ~config:Promising.default_config
      sym_perm_entry.Sekvm.Kernel_progs.prog [ 3; 2; 1; 0 ]
  in
  Format.printf "sym-stress-4 reversed, default config: %s@."
    (if ok then "unchanged" else "DIFFERS (or no quotient, or budget hit)");
  exit (if ok then 0 else 1)

(* Stripe stability: the engine shards its shared seen set by the high
   bits of {!Statekey.hash}, and each stripe's open-addressing table
   doubles independently as it fills. Growth must never migrate a key
   across stripes — the stripe index is a pure function of the key —
   and the per-stripe tables must stay exact (every key findable in
   its stripe, in no other, occupancy summing to the insert count). *)
let test_stripe_stability () =
  let nstripes = 64 in
  let stripe_of key = Statekey.hash key lsr 48 land (nstripes - 1) in
  let stripes =
    Array.init nstripes (fun _ ->
        Statekey.Table.create ~initial:2 ~dummy:(-1) ())
  in
  let n = 20_000 in
  let keys =
    Array.init n (fun i ->
        let h = Statekey.fresh () in
        Statekey.int h (i * 2654435761);
        Statekey.str h "stripe-stability";
        Statekey.finish h)
  in
  (* record each key's stripe at insert time, against tiny tables *)
  let home = Array.map stripe_of keys in
  Array.iteri
    (fun i key ->
      match Statekey.Table.find_or_add stripes.(home.(i)) key i with
      | `Added -> ()
      | `Found _ -> Alcotest.failf "key %d already present" i)
    keys;
  (* the tables doubled many times while filling *)
  Alcotest.(check bool) "tables grew" true
    (Array.exists (fun t -> Statekey.Table.capacity t > 2) stripes);
  Array.iter
    (fun t ->
      let c = Statekey.Table.capacity t in
      Alcotest.(check bool) "capacity is a positive power of two" true
        (c > 0 && c land (c - 1) = 0);
      Alcotest.(check bool) "capacity bounds length" true
        (Statekey.Table.length t <= c))
    stripes;
  (* after growth: stripe assignment unchanged, keys findable only in
     their stripe *)
  Array.iteri
    (fun i key ->
      Alcotest.(check int)
        (Printf.sprintf "key %d stripe stable across growth" i)
        home.(i) (stripe_of key);
      Alcotest.(check bool)
        (Printf.sprintf "key %d present in its stripe" i)
        true
        (Statekey.Table.mem stripes.(home.(i)) key);
      (* spot-check absence elsewhere (all 64 x 20k would be slow) *)
      let other = (home.(i) + 1 + (i mod (nstripes - 1))) mod nstripes in
      Alcotest.(check bool)
        (Printf.sprintf "key %d absent from stripe %d" i other)
        false
        (Statekey.Table.mem stripes.(other) key))
    keys;
  let total =
    Array.fold_left (fun acc t -> acc + Statekey.Table.length t) 0 stripes
  in
  Alcotest.(check int) "occupancy sums to insert count" n total

(* The seen-set shape counters surface through run_stats: a sequential
   run reports exactly one stripe whose occupancy is the visited count;
   a parallel run reports the striped layout. Contention and allocation
   counters stay sane in both modes. *)
let test_seen_set_stats () =
  let p = Paper_examples.example1.Litmus.prog in
  let _, (seq : Engine.stats) = Sc.run_stats p in
  Alcotest.(check int) "sequential: one stripe" 1 seq.Engine.seen_stripes;
  Alcotest.(check int) "sequential: occupancy = interned states"
    seq.Engine.visited seq.Engine.stripe_occupancy;
  Alcotest.(check int) "sequential: no lock waits" 0 seq.Engine.lock_waits;
  Alcotest.(check bool) "sequential: allocation measured" true
    (seq.Engine.minor_words > 0);
  let _, (par : Engine.stats) = Sc.run_stats ~jobs:4 p in
  Alcotest.(check bool) "parallel: stripes reported" true
    (par.Engine.seen_stripes >= 1);
  Alcotest.(check bool) "parallel: occupancy positive and bounded" true
    (par.Engine.stripe_occupancy > 0
    && par.Engine.stripe_occupancy <= par.Engine.visited);
  Alcotest.(check bool) "parallel: lock waits non-negative" true
    (par.Engine.lock_waits >= 0)

(* Corpus-level scheduling must return, in input order, exactly the
   verdict a direct per-entry check computes. *)
let test_check_many_parity () =
  let entries =
    List.map
      (fun (e : Sekvm.Kernel_progs.entry) ->
        ( e.Sekvm.Kernel_progs.name,
          e.Sekvm.Kernel_progs.prog,
          e.Sekvm.Kernel_progs.rm_config ))
      kernel
  in
  let direct =
    List.map
      (fun (name, p, config) -> (name, Vrm.Refinement.check ~config p))
      entries
  in
  let many = Vrm.Refinement.check_many ~jobs:4 entries in
  Alcotest.(check int) "result count" (List.length direct) (List.length many);
  List.iter2
    (fun (n1, (v1 : Vrm.Refinement.verdict))
         (n2, (v2 : Vrm.Refinement.verdict)) ->
      Alcotest.(check string) "order preserved" n1 n2;
      Alcotest.(check bool) (n1 ^ " holds equal") v1.Vrm.Refinement.holds
        v2.Vrm.Refinement.holds;
      Alcotest.(check string) (n1 ^ " sc digest")
        (digest_behaviors v1.Vrm.Refinement.sc)
        (digest_behaviors v2.Vrm.Refinement.sc);
      Alcotest.(check string) (n1 ^ " rm digest")
        (digest_behaviors v1.Vrm.Refinement.rm)
        (digest_behaviors v2.Vrm.Refinement.rm))
    direct many

(* The whole kernel-corpus refinement sweep, pinned: one digest over
   every entry's SC and Promising behavior sets (in corpus order), the
   total states visited and the POR prunes, with POR and symmetry each
   switched off in turn. Visited counts are schedule-independent, so the
   jobs=4 sweeps pin them too; POR prunes only at jobs=1, where the
   sleep sets a state arrives with do not depend on the schedule. *)
let test_sweep_pin () =
  let specs =
    List.map
      (fun (e : Sekvm.Kernel_progs.entry) ->
        ( e.Sekvm.Kernel_progs.name,
          e.Sekvm.Kernel_progs.prog,
          e.Sekvm.Kernel_progs.rm_config ))
      kernel
  in
  let digest = "6e491ed7dba45c37d04157d3904a6851" in
  List.iter
    (fun (label, jobs, por, sym, visited, pruned) ->
      let results = Vrm.Refinement.check_many ~jobs ~por ~sym specs in
      let stats f =
        List.fold_left
          (fun n (_, (v : Vrm.Refinement.verdict)) ->
            n + f v.Vrm.Refinement.sc_stats + f v.Vrm.Refinement.rm_stats)
          0 results
      in
      let d =
        String.concat "|"
          (List.map
             (fun (_, (v : Vrm.Refinement.verdict)) ->
               digest_behaviors v.Vrm.Refinement.sc
               ^ digest_behaviors v.Vrm.Refinement.rm)
             results)
      in
      Alcotest.(check string) (label ^ " digest") digest
        (Digest.to_hex (Digest.string d));
      Alcotest.(check int) (label ^ " visited") visited
        (stats (fun s -> s.Engine.visited));
      Option.iter
        (fun pruned ->
          Alcotest.(check int) (label ^ " por_pruned") pruned
            (stats (fun s -> s.Engine.por_pruned)))
        pruned)
    [ ("default jobs=1", 1, true, true, 113_919, Some 30_905);
      ("por off jobs=1", 1, false, true, 135_782, Some 0);
      ("sym off jobs=1", 1, true, false, 113_930, Some 30_907);
      ("default jobs=2", 2, true, true, 113_919, None);
      ("default jobs=4", 4, true, true, 113_919, None);
      ("por off jobs=4", 4, false, true, 135_782, None) ]

(* ---- state keys and witness replay ------------------------------ *)

(* Continuation keys are a function of the instruction list alone: over
   every pair of suffixes of two random code blocks, the keys agree
   exactly when the lists are structurally equal; walking a
   continuation's tails meets the keys of the list's suffixes; and a
   continuation built by entering a block ([prepend]) keys like the
   flat list. Small seeds make equal suffixes common. *)
let qcheck_cont_keys =
  QCheck.Test.make ~count:200 ~name:"continuation keys equal iff code equal"
    QCheck.(triple (int_bound 40) (int_bound 40) bool)
    (fun (s1, s2, loops) ->
      let code s = Dsl_gen.gen_code (Random.State.make [| s |]) ~loops 1 in
      let a = code s1 and b = code s2 in
      let rec suffixes = function
        | [] -> [ [] ]
        | _ :: t as l -> l :: suffixes t
      in
      let key l = Cont.key (Cont.of_list l) in
      let rec tails_agree k l =
        Statekey.equal (Cont.key k) (key l)
        &&
        match (k, l) with
        | Cont.Cons { instr; rest; _ }, i :: l ->
            Instr.equal instr i && tails_agree rest l
        | Cont.Nil, [] -> true
        | _ -> false
      in
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              Statekey.equal (key x) (key y) = List.equal Instr.equal x y)
            (suffixes b))
        (suffixes a)
      && tails_agree (Cont.of_list a) a
      && List.for_all
           (fun k ->
             let pre = List.filteri (fun i _ -> i < k) a
             and post = List.filteri (fun i _ -> i >= k) a in
             tails_agree (Cont.prepend pre (Cont.of_list post)) a)
           (List.init (List.length a + 1) Fun.id))

(* The memory key a Promising state keeps on append equals the key
   folded from scratch over the message list, at every step of a random
   append sequence, and distinct memories along the way never share a
   key. *)
let qcheck_mem_key =
  QCheck.Test.make ~count:200
    ~name:"incremental memory key = key folded from scratch"
    QCheck.(
      list_of_size Gen.(0 -- 12)
        (quad (int_bound 1) (int_bound 2) (int_bound 3) (int_bound 2)))
    (fun appends ->
      let init =
        [ { Promising.mloc = Loc.v "x"; mbase = 0; mval = 0; ts = 0;
            wtid = -1 } ]
      in
      let _, _, ok, keys =
        List.fold_left
          (fun (mem, k, ok, keys) (b, idx, v, w) ->
            let m =
              { Promising.mloc = Loc.v ~index:idx (if b = 0 then "x" else "y");
                mbase = b;
                mval = v;
                ts = List.length mem;
                wtid = w }
            in
            let mem = m :: mem and k = Promising.mem_key_add k m in
            (mem, k, ok && Statekey.equal k (Promising.mem_key mem), k :: keys))
          (init, Promising.mem_key init, true, [ Promising.mem_key init ])
          appends
      in
      ok
      && List.length (List.sort_uniq Statekey.compare keys)
         = List.length keys)

(* [Statekey.ints h a] continues [h]'s streams exactly as one
   [Statekey.int] per element does, from any prior stream state: a
   random prefix of ints, then the array, either way; and the key then
   also takes the same further ints. *)
let qcheck_ints_key =
  QCheck.Test.make ~count:500 ~name:"Statekey.ints = Statekey.int per element"
    QCheck.(triple (small_list int) (array int) (small_list int))
    (fun (prefix, a, suffix) ->
      let key fold =
        let h = Statekey.fresh () in
        List.iter (Statekey.int h) prefix;
        fold h;
        List.iter (Statekey.int h) suffix;
        Statekey.finish h
      in
      Statekey.equal
        (key (fun h -> Statekey.ints h a))
        (key (fun h -> Array.iter (Statekey.int h) a)))

(* [Porlabel.equal] agrees with polymorphic [=]: a random label over
   small domains against a rebuilt copy (no field physically shared)
   with at most one field changed, and against itself. *)
let gen_label =
  let open QCheck.Gen in
  let loc = map2 (fun b index -> Loc.v ~index b) (oneofl [ "x"; "y" ]) (0 -- 1) in
  let locs = list_size (0 -- 2) loc
  and strs = list_size (0 -- 2) (oneofl [ "x"; "y" ]) in
  map
    (fun ((tid, disc, silent, global, alloc), (reads, writes),
          (obases, otransfer, cert_read, cert_write)) ->
      { Porlabel.tid; disc; silent; global; alloc; reads; writes; obases;
        otransfer; cert_read; cert_write })
    (triple
       (map
          (fun (((tid, disc), silent), (global, alloc)) ->
            (tid, disc, silent, global, alloc))
          (pair (pair (pair (0 -- 1) (0 -- 1)) bool) (pair bool bool)))
       (pair locs locs)
       (quad strs strs strs strs))

let rebuilt_label (l : Porlabel.t) field =
  let str s = String.sub s 0 (String.length s) in
  let locs = List.map (fun (x : Loc.t) -> Loc.v ~index:x.Loc.index (str x.Loc.base))
  and strs = List.map str in
  let flip_locs = function [] -> [ Loc.v "x" ] | _ :: t -> locs t
  and flip_strs = function [] -> [ "x" ] | _ :: t -> strs t in
  { Porlabel.tid = (if field = 0 then 1 - l.tid else l.tid);
    disc = (if field = 1 then l.disc + 1 else l.disc);
    silent = (if field = 2 then not l.silent else l.silent);
    global = (if field = 3 then not l.global else l.global);
    alloc = (if field = 4 then not l.alloc else l.alloc);
    reads = (if field = 5 then flip_locs l.reads else locs l.reads);
    writes = (if field = 6 then flip_locs l.writes else locs l.writes);
    obases = (if field = 7 then flip_strs l.obases else strs l.obases);
    otransfer =
      (if field = 8 then flip_strs l.otransfer else strs l.otransfer);
    cert_read =
      (if field = 9 then flip_strs l.cert_read else strs l.cert_read);
    cert_write =
      (if field = 10 then flip_strs l.cert_write else strs l.cert_write) }

let qcheck_porlabel_equal =
  QCheck.Test.make ~count:1_000 ~name:"Porlabel.equal agrees with ="
    QCheck.(pair (make gen_label) (int_bound 21))
    (fun (l, field) ->
      (* fields 11-21 change nothing: half the pairs are equal *)
      let l' = rebuilt_label l field in
      Porlabel.equal l l' = (l = l')
      && Porlabel.equal l' l = (l' = l)
      && Porlabel.equal l l)

(* Continuation footprints and entries. The references are the walkers
   Promising used before footprints were cached: [walk_bases] folds the
   base of every access [pick] accepts, branch and loop bodies
   included, and [walk_has_store] looks for a [Store] the same way.
   Every node reachable from random code and from the kernel corpus's
   threads, by tails and by entering branches and loop bodies, must
   carry the footprint the walkers find; each [If]/[While] entry must
   key like the [prepend] it caches and come back physically equal when
   asked for again. *)
let walk_bases pick code =
  let rec instr acc (i : Instr.t) =
    match i with
    | Instr.Load (_, a, _) | Instr.Store (a, _, _)
    | Instr.Faa (_, a, _, _) | Instr.Xchg (_, a, _, _)
    | Instr.Cas (_, a, _, _, _)
      when pick i ->
        a.Expr.abase :: acc
    | Instr.If (_, br_then, br_else) ->
        List.fold_left instr (List.fold_left instr acc br_then) br_else
    | Instr.While (_, body) -> List.fold_left instr acc body
    | _ -> acc
  in
  List.sort_uniq String.compare (Cont.fold instr [] code)

let rec walk_instr_has_store (i : Instr.t) =
  match i with
  | Instr.Store _ -> true
  | Instr.If (_, br_then, br_else) ->
      List.exists walk_instr_has_store br_then
      || List.exists walk_instr_has_store br_else
  | Instr.While (_, body) -> List.exists walk_instr_has_store body
  | _ -> false

let walk_has_store code =
  Cont.fold (fun acc i -> acc || walk_instr_has_store i) false code

(* every node reachable from [k] by tails and entries, each once *)
let rec cont_nodes seen k =
  if Cont.is_empty k || List.memq k seen then seen
  else
    let seen = cont_nodes (k :: seen) (Cont.tail k) in
    match Cont.head k with
    | Instr.If _ ->
        cont_nodes (cont_nodes seen (Cont.branch k true)) (Cont.branch k false)
    | Instr.While _ -> cont_nodes seen (Cont.loop k)
    | _ -> seen

let cont_facts_hold code =
  List.for_all
    (fun k ->
      let entry_ok entered flat =
        entered () == entered ()
        && Statekey.equal (Cont.key (entered ())) (Cont.key flat)
      in
      Cont.stores k
      = walk_bases (function Instr.Store _ -> true | _ -> false) k
      && Cont.accesses k = walk_bases (fun _ -> true) k
      && (Cont.stores k <> []) = walk_has_store k
      &&
      match Cont.head k with
      | Instr.If (_, br_then, br_else) ->
          entry_ok
            (fun () -> Cont.branch k true)
            (Cont.prepend br_then (Cont.tail k))
          && entry_ok
               (fun () -> Cont.branch k false)
               (Cont.prepend br_else (Cont.tail k))
      | Instr.While (_, body) ->
          entry_ok (fun () -> Cont.loop k) (Cont.prepend body k)
      | _ -> true)
    (cont_nodes [] (Cont.of_list code))

let qcheck_cont_facts =
  QCheck.Test.make ~count:200
    ~name:"continuation footprints = walk; entries cached and key-equal"
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, loops) ->
      cont_facts_hold (Dsl_gen.gen_code (Random.State.make [| seed |]) ~loops 1))

let test_cont_facts_corpus () =
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      List.iter
        (fun (th : Prog.thread) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s thread %d" e.Sekvm.Kernel_progs.prog.Prog.name
               th.Prog.tid)
            true
            (cont_facts_hold th.Prog.code))
        e.Sekvm.Kernel_progs.prog.Prog.threads)
    Sekvm.Kernel_progs.(corpus @ buggy_corpus @ sym_corpus)

(* ---- key bits ---------------------------------------------------- *)

(* [f k key st] for each of the first [limit] distinct states of the
   probe's search (promise steps included), [k] numbering them in
   depth-first order of [successors]. *)
let iter_states (p : Promising.probe) ~limit f =
  let seen = Statekey.Table.create ~dummy:() () in
  let left = ref limit in
  let rec visit st =
    if !left > 0 then
      let key = p.key st in
      match Statekey.Table.find_or_add seen key () with
      | `Found () -> ()
      | `Added ->
          let k = limit - !left in
          decr left;
          f k key st;
          List.iter visit (p.successors st)
  in
  visit p.initial

(* The state-key bits, not only the partition they induce: for each
   entry of the kernel, buggy and symmetry corpora, under its
   [rm_config], the MD5 of the rendered
   keys of the first 1,000 distinct states of the search, in depth-first
   order of the probe's successors. Visited counts and digests would
   survive a key change that kept equal states equal; these would not.
   They also pin the order in which a state's successors are offered. *)
let key_bits_pin =
  [
    ("gen_vmid", "e1633d23dd96e678980b0c2a564f0900");
    ("vcpu-switch", "8f50385d54d52a6cf58340c8efee54c7");
    ("vm-boot-state", "26b198ae09ca3fc447773a502c1f7529");
    ("share-page", "a51f7c5071bd2cd55d2cd7ec907101f0");
    ("mcs-counter", "eda25eff40d9550b66ae165a3f1054a2");
    ("mcs-handoff", "f58a5cdf0946e50e3316c65fc74d4efb");
    ("gen_vmid-nobarrier", "4f380bec6d17125199ffc42314f9dc1f");
    ("vcpu-switch-nobarrier", "ede5a5f9ee79740bb3d7fbaf4d92bab9");
    ("mcs-handoff-nobarrier", "a0a19c3efc45a43f6caa6871b3c41272");
    ("unlocked-counter", "20a8222bb0278041ed2ddbbaac603a30");
    ("push-without-pull", "e3c387f103072c07264f847d3edc4b25");
    ("sym-stress-3", "2bd1ecbc984976acc47d31c4e0594cc3");
    ("sym-stress-4", "80884d66c8631575b41b7bc681758fb8");
    ("sym-stress-5", "6b5af06f78259e103a17cf3335944866");
  ]

let key_bits_digest (e : Sekvm.Kernel_progs.entry) =
  let p =
    Promising.probe ~config:e.Sekvm.Kernel_progs.rm_config
      e.Sekvm.Kernel_progs.prog
  in
  let buf = Buffer.create 40_000 in
  iter_states p ~limit:1_000 (fun _ key _ ->
      Buffer.add_string buf (Format.asprintf "%a" Statekey.pp key));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_key_bits_pin () =
  let got =
    List.map
      (fun (e : Sekvm.Kernel_progs.entry) ->
        (e.Sekvm.Kernel_progs.name, key_bits_digest e))
      Sekvm.Kernel_progs.(corpus @ buggy_corpus @ sym_corpus)
  in
  Alcotest.(check (list (pair string string))) "key-bit digests"
    key_bits_pin got

(* ---- promise candidates ------------------------------------------ *)

(* Reference promise-candidate set of thread [i] at [st]: the location
   and value of every store on every path of at most [depth] steps of
   thread [i] alone, found by walking all of them with no table of
   states seen. Each step is the main search's whole-state step, not the
   solo stepping the candidate search does. *)
let reference_candidates (p : Promising.probe) depth st i =
  let rec go acc depth st =
    if depth <= 0 then acc
    else
      match p.step st i with
      | None -> acc
      | Some (written, succs) ->
          let acc = match written with Some c -> c :: acc | None -> acc in
          List.fold_left (fun acc st -> go acc (depth - 1) st) acc succs
  in
  List.sort_uniq compare (go [] depth st)

(* The (state, thread) pairs, states numbered in depth-first order over
   the first [limit] distinct states of [prog]'s search, whose candidate
   set differs from the reference's. Every thread of each state is
   checked. *)
let candidate_mismatches ?(config = Promising.default_config) ~limit prog =
  let p = Promising.probe ~config prog in
  let n = List.length prog.Prog.threads in
  let bad = ref [] in
  iter_states p ~limit (fun k _ st ->
      for i = 0 to n - 1 do
        let expected = reference_candidates p config.cert_depth st i in
        if p.candidates st i <> expected then bad := (k, i) :: !bad
      done);
  List.rev !bad

(* Two read choices that meet again: thread 1 reads x (1 from thread 0,
   or the initial 0), takes a branch one [Nop] longer on 1, then stores
   and reloads x and branches on the reloaded value, which raises every
   view both paths differ in to the new store's timestamp. Both paths
   meet in one thread state, the read of 1 (explored first, newest
   message first) a step later. Within [cert_depth] 8 only the shorter
   path reaches the store to y, so a search that stops at a state it has
   already seen, with less depth left, misses the candidate y = 1.
   Thread 0 does the first store, so the depth-first sample of
   [candidate_mismatches] meets that state early. *)
let converging_reads =
  let r1 = Reg.v "r1" and x = Expr.at "x" and y = Expr.at "y" in
  Prog.make ~name:"solo-reads-converge"
    ~observables:[ Prog.Obs_reg (0, Reg.v "r") ]
    [ Prog.thread 0 [ Instr.store x (Expr.c 1); Instr.load (Reg.v "r") y ];
      Prog.thread 1
        [ Instr.load r1 x;
          Instr.if_ Expr.(r r1 = c 1) [ Instr.Nop; Instr.Nop ] [ Instr.Nop ];
          Instr.store x (Expr.c 5);
          Instr.load r1 x;
          Instr.if_ Expr.(r r1 = c 5) [ Instr.Nop ] [ Instr.Nop ];
          Instr.store y (Expr.c 1) ] ]

let converging_config = { Promising.default_config with cert_depth = 8 }

(* Solo steps the candidate set depends on: thread 1 reloads z after
   storing 1 and then 2 to it, so it reads 2 alone only when the second
   store takes a later timestamp than the first; and its FAA on x is
   refused while thread 0 holds x = 1 as an outstanding promise. A
   candidate search whose solo runs reused a timestamp, or ignored the
   other thread's promises, would offer w = 1 or y = 1 where the
   whole-state step reaches neither. *)
let solo_steps =
  let r1 = Reg.v "r1" and r2 = Reg.v "r2" in
  let x = Expr.at "x" and y = Expr.at "y" and z = Expr.at "z"
  and w = Expr.at "w" in
  Prog.make ~name:"solo-steps" ~observables:[]
    [ Prog.thread 0 [ Instr.store x (Expr.c 1) ];
      Prog.thread 1
        [ Instr.store z (Expr.c 1);
          Instr.store z (Expr.c 2);
          Instr.load r2 z;
          Instr.store w (Expr.r r2);
          Instr.faa r1 x (Expr.c 1);
          Instr.store y (Expr.r r1) ] ]

(* Random two-thread programs for the candidate property: loops on,
   small bounds so every solo tree stays small. *)
let candidate_prog seed =
  let rng = Random.State.make [| seed |] in
  Prog.make
    ~name:(Printf.sprintf "dsl-%d" seed)
    ~observables:[]
    [ Prog.thread 0 (Dsl_gen.gen_code rng ~loops:true 0);
      Prog.thread 1 (Dsl_gen.gen_code rng ~loops:true 1) ]

let candidate_config =
  { Promising.default_config with loop_fuel = 2; cert_depth = 12 }

let test_candidates_reference () =
  let check ?config ~limit (prog : Prog.t) =
    Alcotest.(check (list (pair int int)))
      (prog.Prog.name ^ ": (state, thread) pairs whose candidates differ")
      []
      (candidate_mismatches ?config ~limit prog)
  in
  List.iter
    (fun (e : Sekvm.Kernel_progs.entry) ->
      check ~config:e.Sekvm.Kernel_progs.rm_config ~limit:1_000
        e.Sekvm.Kernel_progs.prog)
    Sekvm.Kernel_progs.corpus;
  for seed = 0 to 19 do
    check ~config:candidate_config ~limit:1_000 (candidate_prog seed)
  done;
  check ~config:converging_config ~limit:1_000 converging_reads;
  check ~limit:1_000 solo_steps

(* Wide run outside the test suite: with VRM_CANDS_WIDE set (`make
   cands-wide`), check the candidate property on the random programs of
   seeds 0 to 4,999 and exit non-zero, naming the seeds, on any
   difference. *)
let candidates_wide () =
  let seeds = 5_000 in
  let t0 = Unix.gettimeofday () in
  let bad =
    List.filter
      (fun seed ->
        candidate_mismatches ~config:candidate_config ~limit:1_000
          (candidate_prog seed)
        <> [])
      (List.init seeds Fun.id)
  in
  Format.printf
    "candidate sets vs reference, seeds 0-%d: %d differ%s (%.1f s)@."
    (seeds - 1) (List.length bad)
    (if bad = [] then ""
     else ": " ^ String.concat " " (List.map string_of_int bad))
    (Unix.gettimeofday () -. t0);
  exit (if bad = [] then 0 else 1)

(* Witness text is rendered after the search by replaying each recorded
   footprint path. Over the litmus suite, the paper examples and the
   kernel, buggy and symmetry corpora, [run_full] visits exactly the
   states [run_stats] does (witness bookkeeping changes nothing about
   the search), and the rendered schedules hash to the digest captured
   when witness text was still formatted on every transition. Without
   POR the schedules follow the models' transition order alone, and
   hash to [witness_golden_por_off]. *)
let witness_golden = "8f60ba735f7a62aa19ad2fa82d7b4fbb"
let witness_golden_por_off = "31495b27359105bf9098dbd420ed5aea"

let test_witness_parity () =
  let programs =
    List.map
      (fun (t : Litmus.t) -> (t.Litmus.prog, t.Litmus.rm_config))
      (Paper_examples.all @ Litmus_suite.all)
    @ List.map
        (fun (e : Sekvm.Kernel_progs.entry) ->
          (e.Sekvm.Kernel_progs.prog, Some e.Sekvm.Kernel_progs.rm_config))
        Sekvm.Kernel_progs.(corpus @ buggy_corpus @ sym_corpus)
  in
  let buf = Buffer.create 4096 and buf_por_off = Buffer.create 4096 in
  let render buf (prog : Prog.t) w =
    Buffer.add_string buf prog.Prog.name;
    List.iter
      (fun (o, steps) ->
        Buffer.add_string buf
          (Format.asprintf "\n%a\n%a" Behavior.pp_outcome o
             Promising.pp_schedule steps))
      (List.sort (fun (a, _) (b, _) -> Behavior.compare_outcome a b) w);
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun ((prog : Prog.t), config) ->
      let _, w, (full : Engine.stats) = Promising.run_full ?config prog in
      let _, (plain : Engine.stats) = Promising.run_stats ?config prog in
      Alcotest.(check int)
        (prog.Prog.name ^ " visited: run_full = run_stats")
        plain.Engine.visited full.Engine.visited;
      render buf prog w;
      let _, w, _ = Promising.run_full ?config ~por:false prog in
      render buf_por_off prog w)
    programs;
  let digest buf = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Alcotest.(check string) "witness schedules digest" witness_golden
    (digest buf);
  Alcotest.(check string) "witness schedules digest, por off"
    witness_golden_por_off (digest buf_por_off)

(* Pin of the SC-family executors (Sc, Tso at fuel 3, Pushpull) on the
   paper, litmus-suite, kernel and buggy corpora and two directed TSO
   programs: the short behaviour digest (the [pp_check] verdict for
   Pushpull), then [visited] and jobs=1 [por_pruned] with symmetry on
   and with symmetry off, the transition and dedup counts with POR on
   and off ({!por_counts}), plus the count and digest of
   [Pushpull.traces] on the kernel entries. The values were taken from
   the executors that each kept their own copy of the instruction
   semantics (the POR-off counts from the engine whose models still
   offered lazy transition sequences); any rework of the executors must
   reproduce them exactly. *)
let short s = String.sub (Digest.to_hex (Digest.string s)) 0 8

(* No corpus entry's outcomes depend on which of two buffered stores to
   one location a load forwards, or on buffered stores at all when a
   fuel-exhausted state is observed. Two directed programs pin both:
   forwarding takes the newest buffered store, and observation reads
   buffered stores before memory. *)
let tso_directed =
  let r0 = Reg.v "r0" and r1 = Reg.v "r1" and x = Expr.at "x" in
  let spin = Instr.while_ (Expr.Bool true) [ Instr.Nop ] in
  [ Prog.make ~name:"tso-forward-newest"
      ~observables:
        [ Prog.Obs_reg (0, r0); Prog.Obs_reg (1, r1); Prog.Obs_loc (Loc.v "x") ]
      [ Prog.thread 0
          [ Instr.store x (Expr.c 1);
            Instr.store x (Expr.c 2);
            Instr.load r0 x ];
        Prog.thread 1 [ Instr.load r1 x ] ];
    Prog.make ~name:"tso-observe-live-buffers"
      ~observables:[ Prog.Obs_loc (Loc.v "x") ]
      [ Prog.thread 0 [ Instr.store x (Expr.c 1); spin ];
        Prog.thread 1 [ Instr.store x (Expr.c 2); spin ] ] ]

(* [transitions] and [dedup_hits] of a search under POR, then
   [visited], [transitions] and [dedup_hits] of one without it, both
   with symmetry on. *)
let por_counts (on : Engine.stats) (off : Engine.stats) =
  ( on.Engine.transitions, on.Engine.dedup_hits, off.Engine.visited,
    off.Engine.transitions, off.Engine.dedup_hits )

let sc_family_rows () =
  let row model name digest run =
    let on = run ~sym:true ~por:true and off = run ~sym:false ~por:true in
    let counts (s : Engine.stats) = (s.Engine.visited, s.Engine.por_pruned) in
    let v_on, p_on = counts on and v_off, p_off = counts off in
    ( model, name, digest, v_on, p_on, v_off, p_off,
      por_counts on (run ~sym:true ~por:false) )
  in
  let three name p ~exempt ~initial_owners =
    [ row "sc" name
        (short (Format.asprintf "%a" Behavior.pp (Sc.run p)))
        (fun ~sym ~por -> snd (Sc.run_stats ~sym ~por p));
      row "tso" name
        (short (Format.asprintf "%a" Behavior.pp (Tso.run ~fuel:3 p)))
        (fun ~sym ~por -> snd (Tso.run_stats ~fuel:3 ~sym ~por p));
      row "pushpull" name
        (short (pp_check (Pushpull.check ~exempt ~initial_owners p)))
        (fun ~sym ~por ->
          snd (Pushpull.check_stats ~exempt ~initial_owners ~sym ~por p)) ]
  in
  List.concat_map
    (fun (t : Litmus.t) ->
      three t.Litmus.prog.Prog.name t.Litmus.prog ~exempt:[]
        ~initial_owners:[])
    litmus
  @ List.concat_map
      (fun (e : Sekvm.Kernel_progs.entry) ->
        three e.Sekvm.Kernel_progs.name e.Sekvm.Kernel_progs.prog
          ~exempt:e.Sekvm.Kernel_progs.exempt
          ~initial_owners:e.Sekvm.Kernel_progs.initial_owners)
      kernel
  @ List.concat_map
      (fun (p : Prog.t) -> three p.Prog.name p ~exempt:[] ~initial_owners:[])
      tso_directed

let render_event = function
  | Pushpull.Ev_read (t, l, v) ->
      Printf.sprintf "r%d:%s=%d" t (Loc.to_string l) v
  | Pushpull.Ev_write (t, l, v) ->
      Printf.sprintf "w%d:%s=%d" t (Loc.to_string l) v
  | Pushpull.Ev_rmw (t, l, o, n) ->
      Printf.sprintf "u%d:%s=%d>%d" t (Loc.to_string l) o n
  | Pushpull.Ev_pull (t, bs) ->
      Printf.sprintf "pull%d:%s" t (String.concat "," bs)
  | Pushpull.Ev_push (t, bs) ->
      Printf.sprintf "push%d:%s" t (String.concat "," bs)
  | Pushpull.Ev_barrier (t, b) ->
      Printf.sprintf "b%d:%s" t (Instr.show_barrier b)
  | Pushpull.Ev_tlbi (t, l) ->
      Printf.sprintf "tlbi%d:%s" t
        (match l with None -> "all" | Some l -> Loc.to_string l)

(* (entry, trace count, digest of the rendered traces) *)
let trace_rows () =
  List.map
    (fun (e : Sekvm.Kernel_progs.entry) ->
      let ts =
        Pushpull.traces ~exempt:e.Sekvm.Kernel_progs.exempt
          ~initial_owners:e.Sekvm.Kernel_progs.initial_owners
          e.Sekvm.Kernel_progs.prog
      in
      ( e.Sekvm.Kernel_progs.name,
        List.length ts,
        short
          (String.concat "\n"
             (List.map
                (fun t -> String.concat " " (List.map render_event t))
                ts)) ))
    kernel

(* (model, entry, digest, visited, por_pruned with sym on, visited,
   por_pruned with sym off, {!por_counts}) *)
let sc_family_pin =
  [
    ("sc", "example1-ooo-write", "99e32209", 11, 2, 11, 2, (11, 1, 11, 13, 3));
    ("tso", "example1-ooo-write", "99e32209", 19, 7, 19, 7, (21, 1, 19, 26, 8));
    ("pushpull", "example1-ooo-write", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "example2-vmid-nobarrier", "cc50367b", 2303, 986, 2303, 986, (2316, 0, 3399, 5366, 1950));
    ("tso", "example2-vmid-nobarrier", "cc50367b", 276, 145, 276, 145, (381, 63, 331, 592, 236));
    ("pushpull", "example2-vmid-nobarrier", "2006e9ee", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "example2-vmid-linux-lock", "cc50367b", 2303, 986, 2303, 986, (2316, 0, 3399, 5366, 1950));
    ("tso", "example2-vmid-linux-lock", "cc50367b", 276, 145, 276, 145, (381, 63, 331, 592, 236));
    ("pushpull", "example2-vmid-linux-lock", "2006e9ee", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "example3-vcpu-nobarrier", "c658069c", 18, 6, 18, 6, (17, 0, 21, 28, 8));
    ("tso", "example3-vcpu-nobarrier", "c658069c", 36, 24, 36, 24, (39, 4, 40, 69, 30));
    ("pushpull", "example3-vcpu-nobarrier", "e175146e", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "example3-vcpu-relacq", "c658069c", 18, 6, 18, 6, (17, 0, 21, 28, 8));
    ("tso", "example3-vcpu-relacq", "c658069c", 36, 24, 36, 24, (39, 4, 40, 69, 30));
    ("pushpull", "example3-vcpu-relacq", "e175146e", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "example7-user-to-kernel", "aa3c1fb2", 56, 51, 56, 51, (58, 3, 76, 154, 79));
    ("tso", "example7-user-to-kernel", "aa3c1fb2", 101, 143, 101, 143, (118, 15, 148, 376, 229));
    ("pushpull", "example7-user-to-kernel", "c4c3af1f", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "mp-plain", "1fc71a64", 13, 2, 13, 2, (12, 0, 13, 14, 2));
    ("tso", "mp-plain", "1fc71a64", 23, 9, 23, 9, (24, 2, 23, 33, 11));
    ("pushpull", "mp-plain", "fbd9d1c7", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "mp-dmb", "1fc71a64", 18, 5, 18, 5, (17, 0, 22, 28, 7));
    ("tso", "mp-dmb", "1fc71a64", 27, 12, 27, 12, (31, 4, 31, 47, 17));
    ("pushpull", "mp-dmb", "fbd9d1c7", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "mp-rel-acq", "1fc71a64", 13, 2, 13, 2, (12, 0, 13, 14, 2));
    ("tso", "mp-rel-acq", "1fc71a64", 23, 9, 23, 9, (24, 2, 23, 33, 11));
    ("pushpull", "mp-rel-acq", "fbd9d1c7", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "sb-plain", "2fadd2ce", 13, 2, 13, 2, (12, 0, 13, 14, 2));
    ("tso", "sb-plain", "36f6b4f1", 34, 14, 34, 14, (47, 12, 34, 58, 25));
    ("pushpull", "sb-plain", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "sb-dmb", "2fadd2ce", 18, 5, 18, 5, (17, 0, 22, 28, 7));
    ("tso", "sb-dmb", "2fadd2ce", 27, 14, 27, 14, (36, 9, 31, 54, 24));
    ("pushpull", "sb-dmb", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "lb-data", "7c83c121", 9, 2, 9, 2, (11, 2, 9, 12, 4));
    ("tso", "lb-data", "7c83c121", 16, 7, 16, 7, (19, 2, 16, 24, 9));
    ("pushpull", "lb-data", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "corr", "b7705673", 9, 0, 9, 0, (8, 0, 9, 8, 0));
    ("tso", "corr", "b7705673", 12, 2, 12, 2, (11, 0, 12, 13, 2));
    ("pushpull", "corr", "c41af351", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "mp-dmb-addr", "a487374b", 14, 5, 14, 5, (13, 0, 14, 18, 5));
    ("tso", "mp-dmb-addr", "a487374b", 18, 8, 18, 8, (24, 4, 20, 31, 12));
    ("pushpull", "mp-dmb-addr", "22de1716", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "s-plain", "54c1dbcb", 13, 2, 13, 2, (12, 0, 13, 14, 2));
    ("tso", "s-plain", "54c1dbcb", 30, 15, 30, 15, (31, 2, 30, 46, 17));
    ("pushpull", "s-plain", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "s-dmb", "54c1dbcb", 16, 4, 16, 4, (15, 0, 17, 20, 4));
    ("tso", "s-dmb", "54c1dbcb", 28, 12, 28, 12, (32, 4, 31, 47, 17));
    ("pushpull", "s-dmb", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "2+2w-plain", "4fe5f2f1", 13, 2, 13, 2, (12, 0, 13, 14, 2));
    ("tso", "2+2w-plain", "4fe5f2f1", 42, 27, 42, 27, (51, 9, 42, 76, 35));
    ("pushpull", "2+2w-plain", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "2+2w-dmbst", "4fe5f2f1", 18, 5, 18, 5, (17, 0, 22, 28, 7));
    ("tso", "2+2w-dmbst", "4fe5f2f1", 39, 23, 39, 23, (51, 11, 44, 78, 35));
    ("pushpull", "2+2w-dmbst", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "wrc-plain", "fc117c6e", 36, 13, 36, 13, (35, 0, 36, 48, 13));
    ("tso", "wrc-plain", "fc117c6e", 61, 40, 61, 40, (60, 0, 61, 100, 40));
    ("pushpull", "wrc-plain", "1fbf9a93", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "wrc-dmb", "fc117c6e", 46, 23, 46, 23, (45, 0, 61, 95, 35));
    ("tso", "wrc-dmb", "fc117c6e", 80, 64, 80, 64, (79, 0, 98, 178, 81));
    ("pushpull", "wrc-dmb", "1fbf9a93", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "wrc-addr", "092bf53d", 26, 15, 26, 15, (28, 2, 26, 41, 16));
    ("tso", "wrc-addr", "092bf53d", 47, 39, 47, 39, (49, 3, 47, 88, 42));
    ("pushpull", "wrc-addr", "7fc9df74", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "isa2-dmb", "fc117c6e", 72, 51, 72, 51, (71, 0, 109, 201, 93));
    ("tso", "isa2-dmb", "fc117c6e", 139, 144, 139, 144, (208, 44, 185, 399, 215));
    ("pushpull", "isa2-dmb", "c4c3af1f", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "mp-dmb-ctrl", "defb4a92", 16, 6, 16, 6, (15, 0, 19, 26, 8));
    ("tso", "mp-dmb-ctrl", "defb4a92", 23, 14, 23, 14, (26, 3, 27, 44, 18));
    ("pushpull", "mp-dmb-ctrl", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "mp-dmb-ctrl-isb", "defb4a92", 17, 6, 17, 6, (16, 0, 20, 27, 8));
    ("tso", "mp-dmb-ctrl-isb", "defb4a92", 24, 14, 24, 14, (27, 3, 28, 45, 18));
    ("pushpull", "mp-dmb-ctrl-isb", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "lb-ctrl", "864e6347", 18, 5, 18, 5, (17, 0, 22, 28, 7));
    ("tso", "lb-ctrl", "864e6347", 28, 11, 28, 11, (27, 0, 33, 46, 14));
    ("pushpull", "lb-ctrl", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "cowr", "9ca172a8", 9, 0, 9, 0, (8, 0, 9, 8, 0));
    ("tso", "cowr", "9ca172a8", 18, 6, 18, 6, (20, 3, 18, 26, 9));
    ("pushpull", "cowr", "c41af351", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "corw1", "3ae03771", 9, 0, 9, 0, (8, 0, 9, 8, 0));
    ("tso", "corw1", "3ae03771", 16, 4, 16, 4, (15, 0, 16, 19, 4));
    ("pushpull", "corw1", "c41af351", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "sb-one-dmb", "2fadd2ce", 16, 4, 16, 4, (15, 0, 17, 20, 4));
    ("tso", "sb-one-dmb", "36f6b4f1", 30, 12, 30, 12, (39, 9, 34, 58, 25));
    ("pushpull", "sb-one-dmb", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "rel-acq-two-fields", "310ab5cf", 21, 9, 21, 9, (20, 0, 24, 34, 11));
    ("tso", "rel-acq-two-fields", "310ab5cf", 53, 47, 53, 47, (55, 3, 54, 103, 50));
    ("pushpull", "rel-acq-two-fields", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "r-plain", "34b70a1e", 13, 2, 13, 2, (12, 0, 13, 14, 2));
    ("tso", "r-plain", "fda8c281", 39, 19, 39, 19, (50, 11, 39, 68, 30));
    ("pushpull", "r-plain", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "r-dmb", "34b70a1e", 18, 5, 18, 5, (17, 0, 22, 28, 7));
    ("tso", "r-dmb", "34b70a1e", 33, 18, 33, 18, (45, 11, 37, 65, 29));
    ("pushpull", "r-dmb", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "corr-total", "d9179033", 281, 54, 281, 54, (280, 0, 281, 334, 54));
    ("tso", "corr-total", "d9179033", 380, 189, 380, 189, (379, 0, 380, 568, 189));
    ("pushpull", "corr-total", "174ae9e4", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "sb-rel-acq", "2fadd2ce", 13, 2, 13, 2, (12, 0, 13, 14, 2));
    ("tso", "sb-rel-acq", "36f6b4f1", 34, 14, 34, 14, (47, 12, 34, 58, 25));
    ("pushpull", "sb-rel-acq", "43a3f58c", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "gen_vmid", "cc50367b", 2303, 986, 2303, 986, (2316, 0, 3399, 5366, 1950));
    ("tso", "gen_vmid", "cc50367b", 276, 145, 276, 145, (381, 63, 331, 592, 236));
    ("pushpull", "gen_vmid", "a517d13f", 2563, 1244, 2563, 1244, (2578, 0, 3399, 5366, 1950));
    ("sc", "vcpu-switch", "b3a3ee4b", 18, 6, 18, 6, (17, 0, 21, 28, 8));
    ("tso", "vcpu-switch", "b3a3ee4b", 36, 24, 36, 24, (39, 4, 40, 69, 30));
    ("pushpull", "vcpu-switch", "67c10d6d", 18, 6, 18, 6, (17, 0, 21, 28, 8));
    ("sc", "vm-boot-state", "3b6bbaf6", 2371, 1182, 2371, 1182, (2386, 0, 3531, 5760, 2210));
    ("tso", "vm-boot-state", "3b6bbaf6", 331, 247, 331, 247, (515, 109, 389, 778, 354));
    ("pushpull", "vm-boot-state", "737789fc", 2631, 1440, 2631, 1440, (2648, 0, 3531, 5760, 2210));
    ("sc", "share-page", "140aeaea", 2302, 856, 2302, 856, (2314, 0, 3398, 5234, 1820));
    ("tso", "share-page", "140aeaea", 346, 192, 346, 192, (475, 90, 388, 708, 294));
    ("pushpull", "share-page", "79c6e077", 2562, 1114, 2562, 1114, (2576, 0, 3398, 5234, 1820));
    ("sc", "mcs-counter", "965cbd21", 111493, 26113, 111493, 26113, (112219, 0, 154557, 216138, 60654));
    ("tso", "mcs-counter", "965cbd21", 1095, 709, 1095, 709, (1788, 452, 1384, 2852, 1333));
    ("pushpull", "mcs-counter", "4ee45c2c", 111828, 26445, 111828, 26445, (112557, 0, 154557, 216138, 60654));
    ("sc", "mcs-handoff", "eddf645b", 786, 389, 786, 389, (792, 0, 1170, 1885, 709));
    ("tso", "mcs-handoff", "eddf645b", 83, 56, 83, 56, (117, 16, 96, 180, 75));
    ("pushpull", "mcs-handoff", "e44dae25", 786, 389, 786, 389, (792, 0, 1170, 1885, 709));
    ("sc", "gen_vmid-nobarrier", "cc50367b", 2303, 986, 2303, 986, (2316, 0, 3399, 5366, 1950));
    ("tso", "gen_vmid-nobarrier", "cc50367b", 276, 145, 276, 145, (381, 63, 331, 592, 236));
    ("pushpull", "gen_vmid-nobarrier", "a517d13f", 2563, 1244, 2563, 1244, (2578, 0, 3399, 5366, 1950));
    ("sc", "vcpu-switch-nobarrier", "b3a3ee4b", 18, 6, 18, 6, (17, 0, 21, 28, 8));
    ("tso", "vcpu-switch-nobarrier", "b3a3ee4b", 36, 24, 36, 24, (39, 4, 40, 69, 30));
    ("pushpull", "vcpu-switch-nobarrier", "67c10d6d", 18, 6, 18, 6, (17, 0, 21, 28, 8));
    ("sc", "mcs-handoff-nobarrier", "eddf645b", 786, 389, 786, 389, (792, 0, 1170, 1885, 709));
    ("tso", "mcs-handoff-nobarrier", "eddf645b", 83, 56, 83, 56, (117, 16, 96, 180, 75));
    ("pushpull", "mcs-handoff-nobarrier", "e44dae25", 786, 389, 786, 389, (792, 0, 1170, 1885, 709));
    ("sc", "unlocked-counter", "73ef2ef5", 8, 0, 13, 1, (9, 2, 8, 9, 2));
    ("tso", "unlocked-counter", "73ef2ef5", 13, 0, 22, 6, (17, 5, 13, 17, 5));
    ("pushpull", "unlocked-counter", "cb517fbb", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "push-without-pull", "0b209fbb", 5, 1, 5, 1, (4, 0, 8, 10, 3));
    ("tso", "push-without-pull", "0b209fbb", 6, 3, 6, 3, (5, 0, 10, 13, 4));
    ("pushpull", "push-without-pull", "c705c88a", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "tso-forward-newest", "3d973b89", 13, 1, 13, 1, (12, 0, 13, 13, 1));
    ("tso", "tso-forward-newest", "3d973b89", 25, 6, 25, 6, (31, 7, 25, 37, 13));
    ("pushpull", "tso-forward-newest", "c41af351", 0, 0, 0, 0, (0, 0, 0, 0, 0));
    ("sc", "tso-observe-live-buffers", "57b5b1a9", 517, 256, 517, 256, (778, 0, 33541, 67082, 33024));
    ("tso", "tso-observe-live-buffers", "57b5b1a9", 148, 195, 148, 195, (269, 66, 274, 758, 411));
    ("pushpull", "tso-observe-live-buffers", "c41af351", 0, 0, 0, 0, (0, 0, 0, 0, 0));
  ]

(* Pushpull.traces on the kernel entries *)
let trace_pin =
  [
    ("gen_vmid", 512, "fa242cf8");
    ("vcpu-switch", 20, "19aa692e");
    ("vm-boot-state", 512, "78fb8857");
    ("share-page", 512, "066de1ce");
    ("mcs-counter", 512, "0e5909d1");
    ("mcs-handoff", 512, "aeba67ec");
    ("gen_vmid-nobarrier", 512, "fa242cf8");
    ("vcpu-switch-nobarrier", 20, "19aa692e");
    ("mcs-handoff-nobarrier", 512, "aeba67ec");
    ("unlocked-counter", 0, "d41d8cd9");
    ("push-without-pull", 0, "d41d8cd9");
  ]

let check_por_counts name (t1, d1, v0, t0, d0) (t1', d1', v0', t0', d0') =
  Alcotest.(check (pair int int)) (name "por on transitions/dedup") (t1, d1)
    (t1', d1');
  Alcotest.(check (triple int int int))
    (name "por off visited/transitions/dedup") (v0, t0, d0) (v0', t0', d0')

let test_sc_family_pin () =
  let got = sc_family_rows () in
  Alcotest.(check int) "row count" (List.length sc_family_pin)
    (List.length got);
  List.iter2
    (fun (m, n, d, v1, p1, v0, p0, c) (m', n', d', v1', p1', v0', p0', c') ->
      let name what = Printf.sprintf "%s/%s %s" m n what in
      Alcotest.(check string) (name "entry") (m ^ "/" ^ n) (m' ^ "/" ^ n');
      Alcotest.(check string) (name "digest") d d';
      Alcotest.(check (pair int int)) (name "sym on visited/pruned") (v1, p1)
        (v1', p1');
      Alcotest.(check (pair int int)) (name "sym off visited/pruned") (v0, p0)
        (v0', p0');
      check_por_counts name c c')
    sc_family_pin got;
  List.iter2
    (fun (n, c, d) (n', c', d') ->
      Alcotest.(check string) (n ^ " traces entry") n n';
      Alcotest.(check (pair int string)) (n ^ " traces count/digest") (c, d)
        (c', d'))
    trace_pin (trace_rows ())

(* Directed programs for the edge cases of Promising's state identity,
   which no corpus entry isolates:
   - [reg-written-vs-unwritten]: one branch writes [r := 0], the other
     does not, and both rejoin one continuation with equal views, so the
     two states differ only in whether [r] was ever written;
   - [index-extremes]: one base at index 0, at a negative index and at
     an index >= 2^32, each a distinct location;
   - [observables-only]: a register and a location named only by the
     observables, never by the code or the initial memory;
   - [many-bases]: store buffering over two of 70 declared bases. *)
let promising_directed =
  let r = Reg.v "r" and r0 = Reg.v "r0" and r1 = Reg.v "r1"
  and r2 = Reg.v "r2" and x = Expr.at "x" in
  let a i = Expr.at ~offset:(Expr.c i) "a" in
  let big = 1 lsl 32 in
  let bases = List.init 70 (Printf.sprintf "b%02d") in
  [ Prog.make ~name:"reg-written-vs-unwritten"
      ~observables:[ Prog.Obs_reg (0, r); Prog.Obs_reg (0, r2) ]
      [ Prog.thread 0
          [ Instr.load r1 x;
            Instr.if_ Expr.(r r1 = c 1) [ Instr.move r (Expr.c 0) ] [];
            Instr.load r2 x;
            Instr.if_ Expr.(r r2 = c 1) [ Instr.Nop ] [ Instr.Nop ];
            Instr.move r1 (Expr.c 0) ];
        Prog.thread 1 [ Instr.store x (Expr.c 1) ] ];
    Prog.make ~name:"index-extremes"
      ~observables:
        [ Prog.Obs_reg (1, r0); Prog.Obs_reg (1, r1); Prog.Obs_reg (1, r2);
          Prog.Obs_loc (Loc.v "a"); Prog.Obs_loc (Loc.v ~index:(-1) "a");
          Prog.Obs_loc (Loc.v ~index:big "a") ]
      [ Prog.thread 0
          [ Instr.store (a big) (Expr.c 1); Instr.store (a (-1)) (Expr.c 2) ];
        Prog.thread 1
          [ Instr.load r0 (a 0); Instr.load r1 (a (-1)); Instr.load r2 (a big) ] ];
    Prog.make ~name:"observables-only"
      ~observables:
        [ Prog.Obs_reg (1, r0); Prog.Obs_reg (0, Reg.v "ghost");
          Prog.Obs_loc (Loc.v "z") ]
      [ Prog.thread 0 [ Instr.store x (Expr.c 1) ];
        Prog.thread 1 [ Instr.load r0 x ] ];
    Prog.make ~name:"many-bases"
      ~init:(List.map (fun b -> (Loc.v b, 0)) bases)
      ~observables:[ Prog.Obs_reg (0, r0); Prog.Obs_reg (1, r1) ]
      [ Prog.thread 0
          [ Instr.store (Expr.at "b69") (Expr.c 1); Instr.load r0 (Expr.at "b05") ];
        Prog.thread 1
          [ Instr.store (Expr.at "b05") (Expr.c 1); Instr.load r1 (Expr.at "b69") ] ] ]

(* Load buffering with both stores dependent on their thread's load,
   through one dependency kind per program. Every dependency is false
   (it never changes a value), so only the view it carries forbids
   r0 = r1 = 1: a model that drops that view lets a promised store be
   fulfilled after the load it depends on has read the other thread's
   store. One program per kind:
   - [lb-dep-move]: the load's register is copied by a [Move] and the
     store's data reads the copy;
   - [lb-dep-while]: a [While] guard on the loaded value that never
     holds, followed by a constant store (a control dependency);
   - [lb-dep-store-addr]: the store's address index is [r - r];
   - [lb-dep-faa]: a fetch-and-add of [r - r] on a private location,
     whose result feeds the store's data;
   - [lb-dep-cas]: a compare-and-swap whose expected value is [r - r],
     whose result feeds the store's data. *)
let dependency_lb =
  let x = Expr.at "x" and y = Expr.at "y" in
  let lb name side =
    let r0 = Reg.v "r0" and r1 = Reg.v "r1" in
    Prog.make ~name
      ~observables:[ Prog.Obs_reg (0, r0); Prog.Obs_reg (1, r1) ]
      [ Prog.thread 0 (Instr.load r0 x :: side r0 "a" "y");
        Prog.thread 1 (Instr.load r1 y :: side r1 "b" "x") ]
  in
  (* [src - src]: always 0, carrying [src]'s view *)
  let zero src = Expr.Sub (Expr.Reg src, Expr.Reg src) in
  let plus_one e = Expr.Add (e, Expr.c 1) in
  [ lb "lb-dep-move" (fun src own dst ->
        let t = Reg.v (own ^ "_t") in
        [ Instr.move t (Expr.r src); Instr.store (Expr.at dst) (plus_one (zero t)) ]);
    lb "lb-dep-while" (fun src _ dst ->
        [ Instr.while_ (Expr.Cmp (Expr.Eq, Expr.r src, Expr.c 2)) [ Instr.Nop ];
          Instr.store (Expr.at dst) (Expr.c 1) ]);
    lb "lb-dep-store-addr" (fun src _ dst ->
        [ Instr.store (Expr.at ~offset:(zero src) dst) (Expr.c 1) ]);
    lb "lb-dep-faa" (fun src own dst ->
        let t = Reg.v (own ^ "_t") in
        [ Instr.faa t (Expr.at own) (zero src);
          Instr.store (Expr.at dst) (plus_one (Expr.r t)) ]);
    lb "lb-dep-cas" (fun src own dst ->
        let t = Reg.v (own ^ "_t") in
        [ Instr.cas t (Expr.at own) ~expected:(zero src) ~desired:(Expr.c 1);
          Instr.store (Expr.at dst) (plus_one (Expr.r t)) ]) ]

(* (entry, digest, visited, jobs=1 por_pruned, cert_calls, cert_hits with
   sym on, the same four with sym off, {!por_counts}) of Promising under
   each entry's [rm_config]; the directed programs run under
   [default_config]. *)
let promising_rows () =
  let row name config p =
    let run ~sym ~por = Promising.run_stats ?config ~sym ~por p in
    let counts (s : Engine.stats) =
      (s.Engine.visited, s.Engine.por_pruned, s.Engine.cert_calls,
       s.Engine.cert_hits)
    in
    let b, on = run ~sym:true ~por:true and _, off = run ~sym:false ~por:true in
    ( name,
      short (Format.asprintf "%a" Behavior.pp b),
      counts on,
      counts off,
      por_counts on (snd (run ~sym:true ~por:false)) )
  in
  List.map
    (fun (t : Litmus.t) ->
      row t.Litmus.prog.Prog.name t.Litmus.rm_config t.Litmus.prog)
    litmus
  @ List.map
      (fun (e : Sekvm.Kernel_progs.entry) ->
        row e.Sekvm.Kernel_progs.name (Some e.Sekvm.Kernel_progs.rm_config)
          e.Sekvm.Kernel_progs.prog)
      kernel
  @ List.map
      (fun (p : Prog.t) -> row p.Prog.name None p)
      (promising_directed @ dependency_lb)

let promising_pin =
  [
    ("example1-ooo-write", "2b446977", (286, 41, 48, 33), (286, 41, 48, 33), (434, 124, 286, 420, 135));
    ("example2-vmid-nobarrier", "7bd8fdd0", (471, 74, 0, 0), (471, 74, 0, 0), (506, 16, 539, 716, 152));
    ("example2-vmid-linux-lock", "48337ca2", (15957, 3513, 4283, 2996), (15957, 3513, 4283, 2996), (20181, 3352, 18309, 28006, 9020));
    ("example3-vcpu-nobarrier", "cd08ee6c", (406, 144, 49, 17), (406, 144, 49, 17), (480, 71, 482, 753, 272));
    ("example3-vcpu-relacq", "c658069c", (167, 55, 34, 16), (167, 55, 34, 16), (198, 32, 194, 302, 109));
    ("example7-user-to-kernel", "8f806f36", (1908, 1805, 157, 142), (1908, 1805, 157, 142), (2345, 354, 3494, 7695, 4165));
    ("mp-plain", "8a1956d2", (89, 32, 11, 8), (89, 32, 11, 8), (124, 27, 89, 142, 54));
    ("mp-dmb", "1fc71a64", (83, 44, 20, 16), (83, 44, 20, 16), (109, 20, 93, 163, 71));
    ("mp-rel-acq", "1fc71a64", (53, 19, 11, 8), (53, 19, 11, 8), (75, 17, 53, 86, 34));
    ("sb-plain", "36f6b4f1", (371, 166, 16, 8), (371, 166, 16, 8), (519, 117, 371, 606, 236));
    ("sb-dmb", "2fadd2ce", (309, 156, 22, 14), (309, 156, 22, 14), (394, 62, 401, 670, 270));
    ("lb-data", "7c83c121", (212, 29, 43, 31), (212, 29, 43, 31), (330, 100, 212, 318, 107));
    ("corr", "b7705673", (31, 0, 3, 2), (31, 0, 3, 2), (44, 14, 31, 44, 14));
    ("mp-dmb-addr", "a487374b", (49, 24, 12, 8), (49, 24, 12, 8), (59, 11, 56, 93, 38));
    ("s-plain", "2664ecbf", (484, 62, 77, 40), (484, 62, 77, 40), (631, 134, 484, 660, 177));
    ("s-dmb", "54c1dbcb", (332, 73, 80, 52), (332, 73, 80, 52), (435, 95, 363, 542, 180));
    ("2+2w-plain", "1113e7e2", (7647, 1355, 2545, 1843), (7647, 1355, 2545, 1843), (9772, 1708, 7647, 10232, 2586));
    ("2+2w-dmbst", "4fe5f2f1", (3179, 1011, 2036, 1720), (3179, 1011, 2036, 1720), (4213, 878, 3463, 5384, 1922));
    ("wrc-plain", "69e09ce6", (937, 608, 120, 113), (937, 608, 120, 113), (1700, 605, 937, 1850, 914));
    ("wrc-dmb", "fc117c6e", (1171, 1033, 226, 217), (1171, 1033, 226, 217), (1921, 579, 1273, 2706, 1434));
    ("wrc-addr", "092bf53d", (772, 575, 95, 85), (772, 575, 95, 85), (1118, 293, 772, 1508, 737));
    ("isa2-dmb", "fc117c6e", (2858, 3369, 746, 734), (2858, 3369, 746, 734), (4458, 1103, 3647, 8497, 4851));
    ("mp-dmb-ctrl", "225a0f95", (73, 40, 16, 12), (73, 40, 16, 12), (83, 11, 85, 143, 59));
    ("mp-dmb-ctrl-isb", "defb4a92", (72, 40, 16, 12), (72, 40, 16, 12), (82, 11, 84, 142, 59));
    ("lb-ctrl", "864e6347", (322, 113, 89, 73), (322, 113, 89, 73), (486, 137, 335, 564, 230));
    ("cowr", "9ca172a8", (106, 0, 13, 5), (106, 0, 13, 5), (141, 36, 106, 141, 36));
    ("corw1", "3ae03771", (109, 0, 22, 6), (109, 0, 22, 6), (149, 41, 109, 149, 41));
    ("sb-one-dmb", "36f6b4f1", (339, 154, 19, 11), (339, 154, 19, 11), (445, 75, 389, 644, 256));
    ("rel-acq-two-fields", "310ab5cf", (146, 89, 30, 24), (146, 89, 30, 24), (158, 13, 146, 247, 102));
    ("r-plain", "fda8c281", (1422, 547, 448, 275), (1422, 547, 448, 275), (1966, 399, 1422, 2220, 799));
    ("r-dmb", "34b70a1e", (861, 472, 491, 354), (861, 472, 491, 354), (1158, 205, 1027, 1753, 727));
    ("corr-total", "d9179033", (8921, 7702, 528, 520), (8921, 7702, 528, 520), (23886, 12888, 8921, 22684, 13764));
    ("sb-rel-acq", "2fadd2ce", (219, 66, 16, 8), (219, 66, 16, 8), (304, 62, 219, 338, 120));
    ("gen_vmid", "48337ca2", (15957, 3513, 4283, 2996), (15957, 3513, 4283, 2996), (20181, 3352, 18309, 28006, 9020));
    ("vcpu-switch", "b3a3ee4b", (167, 55, 34, 16), (167, 55, 34, 16), (198, 32, 194, 302, 109));
    ("vm-boot-state", "984ff0b9", (27066, 7138, 5084, 2518), (27066, 7138, 5084, 2518), (34948, 6143, 31169, 49818, 17110));
    ("share-page", "88ecba21", (45557, 11501, 9354, 4276), (45557, 11501, 9354, 4276), (55807, 8688, 53600, 80568, 26032));
    ("mcs-counter", "965cbd21", (19375, 6577, 0, 0), (19375, 6577, 0, 0), (23684, 1920, 24747, 40058, 12962));
    ("mcs-handoff", "eddf645b", (302, 204, 56, 49), (302, 204, 56, 49), (398, 65, 368, 704, 311));
    ("gen_vmid-nobarrier", "7bd8fdd0", (471, 74, 0, 0), (471, 74, 0, 0), (506, 16, 539, 716, 152));
    ("vcpu-switch-nobarrier", "ea03959b", (406, 144, 49, 17), (406, 144, 49, 17), (480, 71, 482, 753, 272));
    ("mcs-handoff-nobarrier", "b6599387", (540, 350, 56, 49), (540, 350, 56, 49), (717, 111, 652, 1212, 527));
    ("unlocked-counter", "73ef2ef5", (8, 0, 0, 0), (14, 1, 0, 0), (10, 3, 8, 10, 3));
    ("push-without-pull", "0b209fbb", (5, 3, 0, 0), (5, 3, 0, 0), (4, 0, 8, 10, 3));
    ("reg-written-vs-unwritten", "9e712f51", (93, 32, 25, 23), (93, 32, 25, 23), (109, 15, 93, 139, 47));
    ("index-extremes", "23585d57", (241, 115, 74, 64), (241, 115, 74, 64), (359, 91, 241, 414, 174));
    ("observables-only", "1fb25446", (15, 0, 5, 3), (15, 0, 5, 3), (20, 6, 15, 20, 6));
    ("many-bases", "36df7790", (371, 166, 65, 41), (371, 166, 65, 41), (519, 117, 371, 606, 236));
    ("lb-dep-move", "ccab9144", (335, 89, 407, 363), (335, 89, 407, 363), (574, 189, 335, 564, 230));
    ("lb-dep-while", "ccab9144", (335, 89, 407, 363), (335, 89, 407, 363), (574, 189, 335, 564, 230));
    ("lb-dep-store-addr", "ccab9144", (212, 29, 186, 152), (212, 29, 186, 152), (330, 100, 212, 318, 107));
    ("lb-dep-faa", "ccab9144", (1302, 241, 1026, 978), (1302, 241, 1026, 978), (1548, 197, 1302, 1704, 403));
    ("lb-dep-cas", "ccab9144", (1302, 241, 1026, 978), (1302, 241, 1026, 978), (1548, 197, 1302, 1704, 403));
  ]

let test_promising_pin () =
  let got = promising_rows () in
  Alcotest.(check int) "row count" (List.length promising_pin)
    (List.length got);
  let counts = Alcotest.(pair (pair int int) (pair int int)) in
  let split (v, p, c, h) = ((v, p), (c, h)) in
  List.iter2
    (fun (n, d, on, off, c) (n', d', on', off', c') ->
      Alcotest.(check string) (n ^ " entry") n n';
      Alcotest.(check string) (n ^ " digest") d d';
      Alcotest.check counts (n ^ " sym on visited/pruned/cert")
        (split on) (split on');
      Alcotest.check counts (n ^ " sym off visited/pruned/cert")
        (split off) (split off');
      check_por_counts (fun what -> n ^ " " ^ what) c c')
    promising_pin got

(* Each dependency program forbids r0 = r1 = 1, and Promising's outcome
   set is the Armv8 axiomatic model's. The axiomatic model has no CAS,
   so the CAS program is compared against SC instead: with the load
   buffering outcome forbidden, every outcome of the shape is an SC
   one. *)
let test_dependency_lb () =
  List.iter
    (fun (p : Prog.t) ->
      let name = p.Prog.name in
      let pr = Promising.run p in
      let reference =
        if name = "lb-dep-cas" then Sc.run p else Axiomatic.run p
      in
      Alcotest.(check bool) (name ^ ": r0 = r1 = 1 forbidden") false
        (Behavior.satisfiable
           (fun get -> get (Prog.Obs_reg (0, Reg.v "r0")) = Some 1
                       && get (Prog.Obs_reg (1, Reg.v "r1")) = Some 1)
           pr);
      if not (Behavior.equal reference pr) then
        Alcotest.failf "%s: reference %a@.promising %a" name Behavior.pp
          reference Behavior.pp pr)
    dependency_lb

(* A TLBI whose scope faults (division by zero in the index) panics the
   thread in every model: the scope is evaluated once by the SC-family
   interpreter, and Promising applies the same rule. *)
let test_tlbi_scope_fault () =
  let r0 = Reg.v "r0" in
  let prog =
    Prog.make ~name:"tlbi-scope-fault"
      ~observables:[ Prog.Obs_reg (0, r0); Prog.Obs_loc (Loc.v "x") ]
      [ Prog.thread 0
          [ Instr.move r0 (Expr.c 1);
            Instr.tlbi (Expr.at ~offset:Expr.(r r0 / c 0) "pt");
            Instr.store (Expr.at "x") (Expr.c 1) ];
        Prog.thread 1 [ Instr.load r0 (Expr.at "x") ] ]
  in
  let all_panicked model b =
    Alcotest.(check bool)
      (model ^ " reports only Panicked")
      true
      ((not (Behavior.Outcome_set.is_empty b))
      && Behavior.Outcome_set.for_all
           (fun o -> o.Behavior.status = Behavior.Panicked)
           b)
  in
  all_panicked "sc" (Sc.run prog);
  all_panicked "tso" (Tso.run prog);
  all_panicked "promising" (Promising.run prog);
  Alcotest.(check string) "pushpull" "panic"
    (pp_check (Pushpull.check ~exempt:[ "x" ] prog))

let () =
  if Sys.getenv_opt "VRM_SYM_WIDE" <> None then sym_permutation_wide ();
  if Sys.getenv_opt "VRM_CANDS_WIDE" <> None then candidates_wide ();
  Alcotest.run "engine"
    [ ( "parity",
        [ Alcotest.test_case "behavior sets bit-identical to seed" `Quick
            test_golden_parity ] );
      ( "parallel",
        [ Alcotest.test_case "sc/tso/promising jobs=1 = jobs=4" `Slow
            test_jobs_equivalence;
          Alcotest.test_case "pushpull jobs=1 = jobs=4" `Slow
            test_jobs_equivalence_pushpull;
          Alcotest.test_case "past deadline cancels jobs=4 promptly" `Quick
            test_parallel_cancellation;
          Alcotest.test_case "cancelled partitions classify like sequential"
            `Quick test_deadline_classification;
          Alcotest.test_case "max_states is a global budget" `Quick
            test_global_budget ] );
      ( "por",
        [ Alcotest.test_case "por on/off digests equal everywhere" `Slow
            test_por_equivalence;
          Alcotest.test_case "promising por on/off digests equal" `Slow
            test_por_parity_promising;
          Alcotest.test_case "pushpull por on/off verdicts equal" `Slow
            test_por_parity_pushpull;
          Alcotest.test_case "por strictly reduces visited states" `Quick
            test_por_reduces ] );
      ( "cert-cache",
        [ Alcotest.test_case "on/off digests equal everywhere" `Slow
            test_cert_cache_equivalence;
          Alcotest.test_case "cache fields queries on the kernel corpus"
            `Quick test_cert_cache_hits;
          Alcotest.test_case "check_many = per-entry check" `Slow
            test_check_many_parity ] );
      ( "symmetry",
        [ Alcotest.test_case "sym on/off digests equal everywhere" `Slow
            test_sym_parity_models;
          Alcotest.test_case "pushpull sym on/off verdicts equal" `Slow
            test_sym_parity_pushpull;
          Alcotest.test_case "sym collapses the stress family" `Quick
            test_sym_reduces;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_sym_permutation ] );
      ( "candidates",
        [ Alcotest.test_case "candidate sets = every solo path's stores"
            `Quick test_candidates_reference ] );
      ( "seen-set",
        [ Alcotest.test_case "stripe assignment stable across growth" `Quick
            test_stripe_stability;
          Alcotest.test_case "stripe counters surface in stats" `Quick
            test_seen_set_stats ] );
      ( "stats",
        [ Alcotest.test_case "exploration statistics sane" `Quick
            test_stats_sanity;
          Alcotest.test_case "sc/tso/pushpull digests and counts pinned"
            `Quick test_sc_family_pin;
          Alcotest.test_case "promising digests and counts pinned" `Quick
            test_promising_pin;
          Alcotest.test_case "kernel-corpus sweep digest and counts pinned"
            `Quick test_sweep_pin;
          Alcotest.test_case "dependency views forbid load buffering"
            `Quick test_dependency_lb;
          Alcotest.test_case "faulting TLBI scope panics in every model"
            `Quick test_tlbi_scope_fault ] );
      ( "state-keys",
        [ QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 15 |])
            qcheck_cont_keys;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 15 |])
            qcheck_mem_key;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 15 |])
            qcheck_ints_key;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 15 |])
            qcheck_porlabel_equal;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 15 |])
            qcheck_cont_facts;
          Alcotest.test_case "continuation facts on the kernel corpus" `Quick
            test_cont_facts_corpus;
          Alcotest.test_case "state-key bits pinned on the kernel corpus"
            `Quick test_key_bits_pin;
          Alcotest.test_case "witness text and visited counts unchanged"
            `Slow test_witness_parity ] ) ]
