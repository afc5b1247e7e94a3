(* Workload kcore-fuzz: seeded random storms of hypercalls, guest
   operations and KServ attacks against a live KCore, with
   Kcore.check_invariants after every step. The action mix is the one
   the whole-system fuzz test uses; the generator is re-implemented here
   so the benchmark depends only on the libraries' public functions.

   A storm keeps stepping after an invariant violation and stops early
   only on Kcore_panic, so the work per storm does not depend on whether
   a violation fires. A storm with any violation or a panic is a failed
   operation: failing storm seeds are counted, never skipped.

   The timed storms are a fixed pool, storm seeds 0 .. n-1 (the
   numbering of the ROADMAP's fuzz sweep), run in an order drawn from
   the run seed. The pool's size follows --seconds, so the run's work,
   and which storms fail, depend on the arguments alone, never on how
   many storms the clock lets through. *)

open Common
open Sekvm
open Machine

let cfg = Kcore.default_boot_config
let steps_per_storm = 60

(* The fuzz test's PRNG, so storm seeds mean the same storms. *)
module Rng = struct
  type t = { mutable s : int }

  let create seed = { s = (seed * 2 + 1) land 0x3fffffff }

  let next t =
    t.s <- (t.s * 1103515245 + 12345) land 0x3fffffff;
    t.s

  let below t n = next t mod n
  let pick t l = List.nth l (below t (List.length l))
end

type storm = {
  kcore : Kcore.t;
  kserv : Kserv.t;
  mutable live_vms : int list;
  mutable actions : int;  (* calls into KCore/KServ that return a verdict *)
  mutable denied : int;
}

let boot () =
  let kcore = Kcore.boot { cfg with Kcore.max_vms = 64 } in
  let kserv = Kserv.create kcore ~first_free_pfn:(Kcore.kserv_base cfg) in
  { kcore; kserv; live_vms = []; actions = 0; denied = 0 }

let verdict st r =
  st.actions <- st.actions + 1;
  match r with Ok _ -> true | Error _ -> st.denied <- st.denied + 1; false

let count st r = ignore (verdict st r)

(* One random action. *)
let step rng st =
  let cpu = Rng.below rng cfg.Kcore.n_cpus in
  let random_guest_op () =
    match Rng.below rng 10 with
    | 0 -> Vm.G_read (Page_table.page_va (16 + Rng.below rng 64))
    | 1 ->
        Vm.G_write
          (Page_table.page_va (16 + Rng.below rng 64), Rng.below rng 1000)
    | 2 -> Vm.G_share (Page_table.page_va (16 + Rng.below rng 32))
    | 3 -> Vm.G_unshare (Page_table.page_va (16 + Rng.below rng 32))
    | 4 -> Vm.G_ipi (Rng.below rng 2, Rng.below rng 16)
    | 5 -> Vm.G_ack_irq
    | 6 -> Vm.G_uart_putc (Rng.below rng 128)
    | 7 -> Vm.G_set_reg (Rng.below rng 8, Rng.below rng 1000)
    | 8 -> Vm.G_protect (Page_table.page_va (16 + Rng.below rng 32))
    | 9 -> Vm.G_uart_getc
    | _ -> Vm.G_compute (Rng.below rng 100)
  in
  match Rng.below rng 12 with
  | 0 when List.length st.live_vms < 6 -> (
      match Kserv.boot_vm st.kserv ~cpu ~n_vcpus:2 ~image_pages:1 with
      | Ok vmid ->
          count st (Ok ());
          st.live_vms <- vmid :: st.live_vms
      | Error _ -> count st (Error ())
      | exception Kserv.Out_of_memory -> count st (Error ()))
  | 1 when st.live_vms <> [] ->
      let vmid = Rng.pick rng st.live_vms in
      st.live_vms <- List.filter (fun v -> v <> vmid) st.live_vms;
      Kcore.teardown_vm st.kcore ~cpu ~vmid;
      count st (Ok ())
  | 2 when st.live_vms <> [] ->
      ignore (Kcore.snapshot_vm st.kcore ~cpu ~vmid:(Rng.pick rng st.live_vms));
      count st (Ok ())
  | 3 | 4 ->
      let pfn = Rng.below rng (Phys_mem.n_pages st.kcore.Kcore.mem) in
      count st (Kserv.attack_read_vm_page st.kserv ~cpu ~pfn);
      count st (Kserv.attack_write_vm_page st.kserv ~cpu ~pfn 0xbad);
      if st.live_vms <> [] then
        (* stealing a page KServ happens to own is a legitimate
           donation; keep the host's free list honest when it succeeds *)
        if
          verdict st
            (Kserv.attack_steal_page st.kserv ~cpu ~victim_pfn:pfn
               ~vmid:(Rng.pick rng st.live_vms)
               ~ipa:(Page_table.page_va (200 + Rng.below rng 16)))
        then
          st.kserv.Kserv.free_pfns <-
            List.filter (fun p -> p <> pfn) st.kserv.Kserv.free_pfns
  | 5 -> (
      match st.live_vms with
      | [] -> ()
      | vms ->
          let pfn = Rng.below rng (Phys_mem.n_pages st.kcore.Kcore.mem) in
          if
            verdict st
              (Kcore.map_page_to_vm st.kcore ~cpu ~vmid:(Rng.pick rng vms)
                 ~ipa:(Page_table.page_va (300 + Rng.below rng 16))
                 ~pfn)
          then
            st.kserv.Kserv.free_pfns <-
              List.filter (fun p -> p <> pfn) st.kserv.Kserv.free_pfns)
  | 6 -> (
      let device = Rng.below rng 4 in
      match st.live_vms with
      | [] -> ()
      | vms ->
          let owner =
            if Rng.below rng 2 = 0 then S2page.Kserv
            else S2page.Vm (Rng.pick rng vms)
          in
          count st (Kcore.smmu_attach st.kcore ~cpu ~device ~owner);
          let pfn = Rng.below rng (Phys_mem.n_pages st.kcore.Kcore.mem) in
          count st
            (Kcore.smmu_map st.kcore ~cpu ~device
               ~iova:(Page_table.page_va (Rng.below rng 8))
               ~pfn);
          if Rng.below rng 2 = 0 then
            count st
              (Kcore.smmu_unmap st.kcore ~cpu ~device
                 ~iova:(Page_table.page_va (Rng.below rng 8))))
  | _ -> (
      match st.live_vms with
      | [] -> ()
      | vms -> (
          let vmid = Rng.pick rng vms in
          let vcpuid = Rng.below rng 2 in
          let ops =
            List.init (1 + Rng.below rng 4) (fun _ -> random_guest_op ())
          in
          match Kserv.run_guest st.kserv ~cpu ~vmid ~vcpuid ops with
          | _ -> count st (Ok ())
          | exception Kserv.Out_of_memory -> count st (Error ())))

type result = {
  seed : int;
  steps : int;  (* steps taken: [steps_per_storm] unless KCore panicked *)
  violations : string list;  (* "inv: detail", in order of detection *)
  panic : string option;
  actions : int;
  denied : int;
  hypercalls : int;
  s2_faults : int;
}

let failed r = r.violations <> [] || r.panic <> None

let storm ?(req = 0) seed =
  Span.run ~req "kcore-fuzz.storm" @@ fun root ->
  let rng = Rng.create seed in
  let st =
    Span.run ~parent:root ~req "sekvm.kcore.boot" (fun _ -> boot ())
  in
  let steps = ref 0 and violations = ref [] and panic = ref None in
  (try
     while !steps < steps_per_storm do
       incr steps;
       Span.run ~parent:root ~req "sekvm.step" (fun _ -> step rng st);
       match
         Span.run ~parent:root ~req "sekvm.kcore.check_invariants" (fun _ ->
             Kcore.check_invariants st.kcore)
       with
       | [] -> ()
       | bad ->
           violations :=
             List.rev_append
               (List.map
                  (fun (v : Kcore.invariant_violation) ->
                    Printf.sprintf "step %d %s: %s" !steps v.inv v.detail)
                  bad)
               !violations
     done
   with Kcore.Kcore_panic msg -> panic := Some msg);
  { seed;
    steps = !steps;
    violations = List.rev !violations;
    panic = !panic;
    actions = st.actions;
    denied = st.denied;
    hypercalls = st.kcore.Kcore.hypercalls;
    s2_faults = st.kcore.Kcore.s2_faults }

(* Warm-up and traced storm seeds are drawn from the run seed, each
   from its own stream. *)
let seeds seed stream = Random.State.make [| seed; stream |]
let next_seed st = Random.State.bits st

let warmup_storms = 30

(* Rate and percentiles are medians over slices of [slice] consecutive
   storms (Common.sliced); a slice's p90 has ten samples beyond it. The
   run reports the overall p99 when it has a thousand storms. *)
let slice = 100
let min_storms = 3 * slice

(* Timed storms per requested second: about the storm rate of the
   2-vCPU machine the benchmark was tuned on, so a run measures for
   roughly --seconds. *)
let storms_per_second = 75.

let pool_size seconds =
  max min_storms (int_of_float (Float.ceil (storms_per_second *. seconds)))

(* Storm seeds 0 .. n-1 in a Fisher-Yates order drawn from the run seed. *)
let pool ~seed n =
  let a = Array.init n Fun.id and st = seeds seed 1 in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let run ~t_start ~seed ~seconds =
  let problems = ref [] in
  (* set-up: the program's start and untimed warm-up storms *)
  let ws = seeds seed 7 in
  for _ = 1 to warmup_storms do
    ignore (storm (next_seed ws))
  done;
  Gc.full_major ();
  let setup_s = now () -. t_start in
  let results = ref [] and lat = ref [] and n = ref 0 in
  let t0 = now () in
  Array.iter
    (fun s ->
      let r, d = time (fun () -> storm s) in
      if r.steps <> steps_per_storm && r.panic = None then
        problems := Printf.sprintf "storm %d stopped after %d steps" s r.steps
            :: !problems;
      results := r :: !results;
      lat := (now (), d *. 1000.) :: !lat;
      incr n)
    (pool ~seed (pool_size seconds));
  let done_ = Array.of_list (List.rev !lat) in
  let rate, p50, p90, slices = sliced ~start:t0 ~size:slice done_ in
  let results = List.rev !results in
  (* Storms are deterministic in their seed: replaying the first storms,
     and the first failing one, must reproduce them exactly. *)
  let replay =
    List.filteri (fun i _ -> i < 3) results
    @ (match List.find_opt failed results with Some r -> [ r ] | None -> [])
  in
  List.iter
    (fun r ->
      if storm r.seed <> r then
        problems := Printf.sprintf "storm %d does not replay" r.seed :: !problems)
    replay;
  let failures =
    List.sort (fun a b -> compare a.seed b.seed) (List.filter failed results)
  in
  let ms = sorted (List.map snd !lat) in
  let n = !n in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  { correct = !problems = [];
    attempted = n;
    failed = List.length failures;
    problems = !problems;
    metrics =
      [ metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MB" (peak_rss_mb 0);
        metric "pass_ratio" "ratio"
          (1. -. (float (List.length failures) /. float n));
        metric "rate_per_s" "1/s" rate;
        metric "p50_ms" "ms" p50;
        metric "p90_ms" "ms" p90 ];
    detail =
      [ ("workload", Json.String "kcore-fuzz");
        ("operation", Json.String "one 60-step storm");
        ("storms", Json.Int n);
        ("storm_seeds", Json.String (Printf.sprintf "0..%d" (n - 1)));
        ("slices", Json.Int slices);
        ("slice_size", Json.Int slice);
        ("p90_samples_beyond", Json.Int (beyond slice 90.));
        ( "p99_ms",
          if beyond n 99. >= 10 then Json.Float (percentile ms 99.)
          else Json.Null );
        ("p99_samples_beyond", Json.Int (beyond n 99.));
        ( "first_storm_seeds",
          Json.List
            (List.filteri (fun i _ -> i < 5) results
            |> List.map (fun r -> Json.Int r.seed)) );
        ("failing_storms", Json.List (List.map (fun r -> Json.Int r.seed) failures));
        ( "first_failure",
          match failures with
          | r :: _ ->
              Json.String
                (match (r.violations, r.panic) with
                | v :: _, _ -> v
                | [], Some p -> "panic: " ^ p
                | [], None -> "")
          | [] -> Json.Null );
        ("actions", Json.Int (sum (fun r -> r.actions)));
        ("hypercalls", Json.Int (sum (fun r -> r.hypercalls))) ] }

(* ---- traced run ----------------------------------------------------------- *)

let traced_storms = 200
let overhead_rounds = 8

let traced ~seed =
  let ts = seeds seed 3 in
  let problems = ref [] in
  let seeds = List.init traced_storms (fun _ -> next_seed ts) in
  List.iter (fun s -> ignore (storm s)) (List.filteri (fun i _ -> i < warmup_storms) seeds);
  (* each chunk of storms runs untraced, then traced; the overhead is the
     median of the chunks' time ratios *)
  let chunk = traced_storms / overhead_rounds in
  Span.reset ();
  let rounds =
    List.init overhead_rounds (fun k ->
        let mine = List.filteri (fun i _ -> i / chunk = k) seeds in
        Gc.full_major ();
        let untraced, u_wall = time (fun () -> List.map storm mine) in
        Gc.full_major ();
        Span.enabled := true;
        let traced, t_wall =
          time (fun () ->
              List.mapi (fun i s -> storm ~req:((k * chunk) + i + 1) s) mine)
        in
        Span.enabled := false;
        if traced <> untraced then
          problems := "storms differ when traced" :: !problems;
        (t_wall /. u_wall, traced))
  in
  let results = List.concat_map snd rounds in
  let overhead = median (List.map fst rounds) -. 1. in
  let spans = Span.all () in
  let aggs = Span.aggregate spans in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let storm_s = Span.total_of aggs "kcore-fuzz.storm" in
  let boot = Span.total_of aggs "sekvm.kcore.boot"
  and step = Span.total_of aggs "sekvm.step"
  and inv = Span.total_of aggs "sekvm.kcore.check_invariants" in
  let actions = sum (fun r -> r.actions) in
  let metrics =
    [ metric "kcore-fuzz.storms" "count" (float (List.length results));
      metric "kcore-fuzz.trace_overhead_ratio" "ratio" overhead;
      metric "kcore-fuzz.sekvm.kcore.boot_s" "s" boot;
      metric "kcore-fuzz.sekvm.step_s" "s" step;
      metric "kcore-fuzz.sekvm.kcore.check_invariants_s" "s" inv;
      metric "kcore-fuzz.storm.self_s" "s" (Span.self_of aggs "kcore-fuzz.storm");
      metric "kcore-fuzz.accounted_ratio" "ratio" ((boot +. step +. inv) /. storm_s);
      metric "kcore-fuzz.sekvm.hypercalls" "count" (float (sum (fun r -> r.hypercalls)));
      metric "kcore-fuzz.sekvm.s2_faults" "count" (float (sum (fun r -> r.s2_faults)));
      metric "kcore-fuzz.sekvm.violations" "count"
        (float (sum (fun r -> List.length r.violations)));
      metric "kcore-fuzz.sekvm.failed_storms" "count"
        (float (List.length (List.filter failed results)));
      metric "kcore-fuzz.sekvm.actions" "count" (float actions);
      metric "kcore-fuzz.sekvm.denied_ratio" "ratio"
        (float (sum (fun r -> r.denied)) /. float actions) ]
  in
  (metrics, spans, !problems)
