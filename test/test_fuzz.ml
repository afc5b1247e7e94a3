(* Whole-system fuzzing: random sequences of hypercalls, guest operations
   and KServ attacks against a live SeKVM instance, with the security
   invariants re-checked after every step and the trace-based wDRF
   checkers run on each storm's trace. Also the deterministic multi-VM
   stress scenario. *)

open Sekvm
open Machine

let cfg = Kcore.default_boot_config

(* What the storms reach, counted as they draw it (see Cover): the branch
   taken, the device and owner kind an attach names, the SMMU
   hypercalls' verdicts, teardowns that revoke a VM's device, and the
   EL2 writes and unmaps the trace checkers judge. *)
let census = Cover.create ()
let cover = Cover.hit census

let verdict op = function
  | Ok () -> cover (op ^ " Ok")
  | Error `Denied -> cover (op ^ " Denied")

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* Floors per 200 storms, about half of what storms 0-199 reach: every
   branch, devices 0-3, both owner kinds, both verdicts of attach (for
   each owner kind), map and unmap, teardowns that revoke a device, and
   the traces' EL2 writes and unmaps. A sweep of n storms must reach
   floor * n / 200. *)
let floors =
  [ ("branch boot", 500); ("branch teardown", 300);
    ("branch snapshot", 300); ("branch attack", 1000);
    ("branch donate", 300); ("branch smmu", 300); ("branch guest", 1500);
    ("device 0", 75); ("device 1", 75); ("device 2", 75); ("device 3", 75);
    ("owner kserv", 150); ("owner vm", 150);
    ("attach Ok", 200); ("attach Denied", 80);
    ("attach kserv Ok", 100); ("attach kserv Denied", 40);
    ("attach vm Ok", 100); ("attach vm Denied", 40);
    ("map Ok", 100); ("map Denied", 150);
    ("unmap Ok", 8); ("unmap Denied", 130);
    ("teardown revokes a device", 50);
    ("trace el2 writes", 100_000); ("trace unmaps", 2_000) ]

let scaled_floors n = List.map (fun (l, f) -> (l, f * n / 200)) floors

type fuzz_state = {
  kcore : Kcore.t;
  kserv : Kserv.t;
  mutable live_vms : int list;
  mutable steps : int;
}

let boot_fuzz () =
  let kcore = Kcore.boot { cfg with Kcore.max_vms = 64 } in
  let kserv = Kserv.create kcore ~first_free_pfn:(Kcore.kserv_base cfg) in
  { kcore; kserv; live_vms = []; steps = 0 }

(* One random action. Every action must leave the invariants intact;
   actions may legitimately be denied, but never corrupt state. *)
let step rng (st : fuzz_state) : unit =
  st.steps <- st.steps + 1;
  let below = Random.State.int rng in
  let cpu = below cfg.Kcore.n_cpus in
  let random_guest_op () =
    match below 10 with
    | 0 -> Vm.G_read (Page_table.page_va (16 + below 64))
    | 1 ->
        Vm.G_write
          (Page_table.page_va (16 + below 64), below 1000)
    | 2 -> Vm.G_share (Page_table.page_va (16 + below 32))
    | 3 -> Vm.G_unshare (Page_table.page_va (16 + below 32))
    | 4 -> Vm.G_ipi (below 2, below 16)
    | 5 -> Vm.G_ack_irq
    | 6 -> Vm.G_uart_putc (below 128)
    | 7 -> Vm.G_set_reg (below 8, below 1000)
    | 8 -> Vm.G_protect (Page_table.page_va (16 + below 32))
    | 9 -> Vm.G_uart_getc
    | _ -> Vm.G_compute (below 100)
  in
  match below 12 with
  | 0 when List.length st.live_vms < 6 -> (
      cover "branch boot";
      match Kserv.boot_vm st.kserv ~cpu ~n_vcpus:2 ~image_pages:1 with
      | Ok vmid -> st.live_vms <- vmid :: st.live_vms
      | Error _ -> ()
      | exception Kserv.Out_of_memory -> ())
  | 1 when st.live_vms <> [] ->
      cover "branch teardown";
      let vmid = pick rng st.live_vms in
      st.live_vms <- List.filter (fun v -> v <> vmid) st.live_vms;
      if List.mem (S2page.Vm vmid) (List.map snd st.kcore.Kcore.smmu_owners)
      then cover "teardown revokes a device";
      Kcore.teardown_vm st.kcore ~cpu ~vmid
  | 2 when st.live_vms <> [] ->
      cover "branch snapshot";
      ignore (Kcore.snapshot_vm st.kcore ~cpu ~vmid:(pick rng st.live_vms))
  | 3 | 4 ->
      (* KServ attacks with random frames: must never corrupt anything *)
      cover "branch attack";
      let pfn = below (Phys_mem.n_pages st.kcore.Kcore.mem) in
      ignore (Kserv.attack_read_vm_page st.kserv ~cpu ~pfn);
      ignore (Kserv.attack_write_vm_page st.kserv ~cpu ~pfn 0xbad);
      if st.live_vms <> [] then (
        (* "stealing" a page KServ happens to own is just a legitimate
           donation; keep the host's free list honest when it succeeds *)
        match
          Kserv.attack_steal_page st.kserv ~cpu ~victim_pfn:pfn
            ~vmid:(pick rng st.live_vms)
            ~ipa:(Page_table.page_va (200 + below 16))
        with
        | Ok () ->
            st.kserv.Kserv.free_pfns <-
              List.filter (fun p -> p <> pfn) st.kserv.Kserv.free_pfns
        | Error `Denied -> ())
  | 5 -> (
      (* random donation attempt with a random (often illegal) frame *)
      match st.live_vms with
      | [] -> ()
      | vms ->
          cover "branch donate";
          let pfn = below (Phys_mem.n_pages st.kcore.Kcore.mem) in
          match
            Kcore.map_page_to_vm st.kcore ~cpu ~vmid:(pick rng vms)
              ~ipa:(Page_table.page_va (300 + below 16))
              ~pfn
          with
          | Ok () ->
              st.kserv.Kserv.free_pfns <-
                List.filter (fun p -> p <> pfn) st.kserv.Kserv.free_pfns
          | Error `Denied -> ())
  | 6 -> (
      (* SMMU lifecycle with random (often illegal) arguments *)
      let device = below 4 in
      match st.live_vms with
      | [] -> ()
      | vms ->
          cover "branch smmu";
          cover (Printf.sprintf "device %d" device);
          let owner, kind =
            if below 2 = 0 then (S2page.Kserv, "kserv")
            else (S2page.Vm (pick rng vms), "vm")
          in
          cover ("owner " ^ kind);
          let attached = Kcore.smmu_attach st.kcore ~cpu ~device ~owner in
          verdict "attach" attached;
          verdict ("attach " ^ kind) attached;
          let pfn = below (Phys_mem.n_pages st.kcore.Kcore.mem) in
          verdict "map"
            (Kcore.smmu_map st.kcore ~cpu ~device
               ~iova:(Page_table.page_va (below 8))
               ~pfn);
          if below 2 = 0 then
            verdict "unmap"
              (Kcore.smmu_unmap st.kcore ~cpu ~device
                 ~iova:(Page_table.page_va (below 8))))
  | _ -> (
      match st.live_vms with
      | [] -> ()
      | vms -> (
          cover "branch guest";
          let vmid = pick rng vms in
          let vcpuid = below 2 in
          let ops = List.init (1 + below 4) (fun _ -> random_guest_op ()) in
          try ignore (Kserv.run_guest st.kserv ~cpu ~vmid ~vcpuid ops)
          with Kserv.Out_of_memory -> ()))

(* The trace-based wDRF checkers on the whole storm: every write to
   KCore's EL2 table hits an empty entry (Write-Once-Kernel-Mapping), and
   every unmap or remap is followed by a DSB and a TLBI that covers it
   (Sequential-TLB-Invalidation). *)
let trace_holds seed (k : Kcore.t) =
  let wo = Vrm.Check_write_once.check k.Kcore.trace in
  let tlbi = Vrm.Check_tlbi.check k.Kcore.trace in
  Cover.add census "trace el2 writes" wo.Vrm.Check_write_once.el2_writes;
  Cover.add census "trace unmaps" tlbi.Vrm.Check_tlbi.unmaps_checked;
  if not wo.Vrm.Check_write_once.holds then
    Format.eprintf "seed %d: %a@." seed Vrm.Check_write_once.pp_verdict wo;
  if not tlbi.Vrm.Check_tlbi.holds then
    Format.eprintf "seed %d: %a@." seed Vrm.Check_tlbi.pp_verdict tlbi;
  wo.Vrm.Check_write_once.holds && tlbi.Vrm.Check_tlbi.holds

let run_fuzz_from st seed n_steps =
  let rng = Random.State.make [| seed |] in
  let ok = ref true in
  (try
     for _ = 1 to n_steps do
       step rng st;
       match Kcore.check_invariants st.kcore with
       | [] -> ()
       | bad ->
           Format.eprintf "seed %d step %d: %d violations (%s)@." seed
             st.steps (List.length bad)
             (String.concat "; "
                (List.map (fun v -> v.Kcore.detail) bad));
           ok := false;
           raise Exit
     done
   with
  | Exit -> ()
  | Kcore.Kcore_panic msg ->
      Format.eprintf "seed %d step %d: unexpected panic %s@." seed st.steps
        msg;
      ok := false);
  !ok && trace_holds seed st.kcore

let run_fuzz seed n_steps = run_fuzz_from (boot_fuzz ()) seed n_steps

let storm seed = run_fuzz seed 60

(* Where a storm leaves the system: the ownership database, every tree's
   table pages and leaf entries, the pools' free counts and KCore's
   counters. Table pages name the frames the planner allocated, so a
   planner that allocates differently moves the digest. *)
let storm_fingerprint seed =
  let st = boot_fuzz () in
  let ok = run_fuzz_from st seed 60 in
  let k = st.kcore in
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  add "seed %d ok %b steps %d\n" seed ok st.steps;
  for pfn = 0 to S2page.n_pages k.Kcore.s2page - 1 do
    add "%s %b %d;"
      (S2page.show_owner (S2page.owner k.Kcore.s2page pfn))
      (S2page.is_shared k.Kcore.s2page pfn)
      (S2page.map_count k.Kcore.s2page pfn)
  done;
  let tree name g root =
    add "\n%s tables" name;
    List.iter (add " %d") (Page_table.table_pages k.Kcore.mem g ~root);
    add "\n%s leaves" name;
    List.iter
      (fun (e : Page_table.extent) ->
        add " %d->%d/%b%b/%d" e.e_vp e.e_pfn e.e_perms.Pte.readable
          e.e_perms.Pte.writable e.e_pages)
      (Page_table.extents k.Kcore.mem g ~root)
  in
  let el2 = k.Kcore.el2 in
  tree "el2" el2.El2_pt.geometry el2.El2_pt.root;
  tree "kserv" k.Kcore.geometry k.Kcore.kserv_npt.Npt.root;
  List.iter
    (fun (vmid, (vm : Kcore.vm)) ->
      match vm.Kcore.vstate with
      | Kcore.Torn_down -> add "\nvm %d torn down" vmid
      | state ->
          tree
            (Printf.sprintf "vm %d %s" vmid (Kcore.show_vm_state state))
            k.Kcore.geometry vm.Kcore.npt.Npt.root)
    k.Kcore.vms;
  let smmu = k.Kcore.smmu_ops.Smmu_ops.smmu in
  List.iter
    (fun (device, root) ->
      tree (Printf.sprintf "device %d" device) smmu.Smmu.geometry root)
    smmu.Smmu.contexts;
  List.iter
    (fun (device, owner) -> add "\nowner %d %s" device (S2page.show_owner owner))
    k.Kcore.smmu_owners;
  add "\npools %d %d %d hypercalls %d s2_faults %d\n"
    (Page_pool.available k.Kcore.el2_pool)
    (Page_pool.available k.Kcore.s2_pool)
    (Page_pool.available k.Kcore.smmu_pool)
    k.Kcore.hypercalls k.Kcore.s2_faults;
  Buffer.contents b

(* Storms 0-199 pinned to where they leave the system: a faster checker
   or planner must not change what a storm does. Re-pinned when teardown
   began returning a dead VM's table pages to the pools (the planner
   reuses them, and a torn-down VM has no tree to list), and again when
   the storms began drawing from Random.State. *)
let test_storm_trajectories () =
  let all = Buffer.create (1 lsl 20) in
  for seed = 0 to 199 do
    Buffer.add_string all (storm_fingerprint seed)
  done;

  Alcotest.(check string) "digest of storms 0-199" "3d44d944e1778a7f613336419d81206f"
    (Digest.to_hex (Digest.string (Buffer.contents all)))

let qcheck_fuzz =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 60 |])
    (QCheck.Test.make ~name:"random hypercall storms preserve the invariants"
       ~count:12
       QCheck.(int_bound 10_000)
       storm)

(* The DMA-isolation hole: a page a KServ-owned device can still reach
   by DMA must never become VM memory, whichever donation path offers
   it. Each path is denied (import_vm panics), the page stays KServ's,
   and the invariants hold. *)
let test_dma_regressions () =
  let leaks (path, refused) =
    let st = boot_fuzz () and cpu = 0 in
    let k = st.kcore in
    let pfn = Kserv.alloc_page st.kserv in
    let ok what = function
      | Ok () -> ()
      | Error `Denied -> Alcotest.failf "%s: %s denied" path what
    in
    ok "host write" (Kserv.host_write st.kserv ~cpu ~pfn ~idx:0 7);
    ok "attach" (Kcore.smmu_attach k ~cpu ~device:0 ~owner:S2page.Kserv);
    ok "dma map" (Kserv.attack_dma_map st.kserv ~cpu ~device:0 ~pfn);
    let vmid = Kcore.register_vm k ~cpu in
    Kcore.register_vcpu k ~cpu ~vmid ~vcpuid:0;
    not
      (refused k vmid pfn
      && S2page.owner k.Kcore.s2page pfn = S2page.Kserv
      && Kcore.check_invariants k = [])
  in
  let paths =
    [ ( "set_vm_image",
        fun k vmid pfn ->
          Kcore.set_vm_image k ~cpu:0 ~vmid ~pfns:[ pfn ]
            ~expected_hash:(Vm.image_hash k.Kcore.mem [ pfn ])
          = Error `Denied );
      ( "map_page_to_vm",
        fun k vmid pfn ->
          Kcore.map_page_to_vm k ~cpu:0 ~vmid ~ipa:(Page_table.page_va 300)
            ~pfn
          = Error `Denied );
      ( "import_vm",
        fun k _ pfn ->
          match
            Kcore.import_vm k ~cpu:0
              ~pages:[ (0, Array.make Phys_mem.entries_per_page 1) ]
              ~donate:(fun () -> pfn)
              ~n_vcpus:1
          with
          | _ -> false
          | exception Kcore.Kcore_panic _ -> true ) ]
  in
  Alcotest.(check (list string)) "paths that donate a DMA-reachable page" []
    (List.map fst (List.filter leaks paths))

(* The map-count tally the checker used before it went sparse: count
   [Page_table.mappings] over every tree the checker walks in full
   (KServ's stage 2, each live VM's, each owned SMMU context) and compare
   all frames with the database, in ascending order. *)
let reference_map_counts (k : Kcore.t) =
  let db = k.Kcore.s2page in
  let counts = Array.make (S2page.n_pages db) 0 in
  let tree g root =
    List.iter
      (fun (_, pfn, _) -> counts.(pfn) <- counts.(pfn) + 1)
      (Page_table.mappings k.Kcore.mem g ~root)
  in
  tree k.Kcore.geometry k.Kcore.kserv_npt.Npt.root;
  List.iter
    (fun (_, (vm : Kcore.vm)) ->
      match vm.Kcore.vstate with
      | Kcore.Torn_down -> ()
      | Kcore.Registered | Kcore.Verified ->
          tree vm.Kcore.npt.Npt.geometry vm.Kcore.npt.Npt.root)
    k.Kcore.vms;
  let smmu = k.Kcore.smmu_ops.Smmu_ops.smmu in
  List.iter
    (fun (device, root) ->
      if List.mem_assoc device k.Kcore.smmu_owners then
        tree smmu.Smmu.geometry root)
    smmu.Smmu.contexts;
  List.filter_map
    (fun pfn ->
      let recorded = S2page.map_count db pfn in
      if recorded = counts.(pfn) then None
      else
        Some
          { Kcore.inv = "map-count-consistent";
            detail =
              Printf.sprintf "page %d: map_count %d but %d actual mappings"
                pfn recorded counts.(pfn) })
    (List.init (Array.length counts) Fun.id)

(* Storms 0-29 with one or two map counts corrupted at random steps: an
   increment of any frame, or an increment or a decrement of a mapped
   one. The checker must report exactly what the reference does; the
   corruptions are then undone, so each storm runs on as it would. Some
   checks must see a decrement and an increment together, which leave
   the database's total as it was. *)
let test_sparse_tally () =
  let rng = Random.State.make [| 7 |] in
  let checks = ref 0 and same_total = ref 0 in
  for seed = 0 to 29 do
    let st = boot_fuzz () and storm_rng = Random.State.make [| seed |] in
    let db = st.kcore.Kcore.s2page in
    for _ = 1 to 60 do
      step storm_rng st;
      if Random.State.int rng 3 = 0 then begin
        let mapped =
          List.filter
            (fun p -> S2page.map_count db p > 0)
            (List.init (S2page.n_pages db) Fun.id)
        in
        let total = S2page.total_map_count db in
        let undo =
          List.init
            (1 + Random.State.int rng 2)
            (fun _ ->
              match Random.State.int rng 3 with
              | 0 when mapped <> [] ->
                  let pfn = pick rng mapped in
                  if S2page.map_count db pfn > 0 then begin
                    S2page.decr_map db pfn;
                    fun () -> S2page.incr_map db pfn
                  end
                  else Fun.id
              | 1 when mapped <> [] ->
                  let pfn = pick rng mapped in
                  S2page.incr_map db pfn;
                  fun () -> S2page.decr_map db pfn
              | _ ->
                  let pfn = Random.State.int rng (S2page.n_pages db) in
                  S2page.incr_map db pfn;
                  fun () -> S2page.decr_map db pfn)
        in
        let expected = reference_map_counts st.kcore in
        if expected <> [] && S2page.total_map_count db = total then
          incr same_total;
        incr checks;
        if Kcore.check_invariants st.kcore <> expected then
          Alcotest.failf "seed %d step %d: checker and reference differ" seed
            st.steps;
        List.iter (fun f -> f ()) (List.rev undo)
      end
    done
  done;
  if !same_total < 50 then
    Alcotest.failf "%d of %d checks kept the total, floor 50" !same_total
      !checks

(* Storms 0-199 reach every label of the census at its floor. *)
let test_census () =
  Hashtbl.reset census;
  for seed = 0 to 199 do
    ignore (storm seed)
  done;
  Cover.check census (scaled_floors 200)

let test_long_fuzz () =
  Alcotest.(check bool) "200-step run clean" true (run_fuzz 424242 200)

let test_stress_scenario () =
  let s = Vrm.Scenario.stress_run ~n_vms:4 ~rounds:3 () in
  Alcotest.(check int) "all rounds checked" 3 s.Vrm.Scenario.st_invariant_checks;
  Alcotest.(check bool) "guest ops ran" true (s.Vrm.Scenario.st_guest_ops > 100);
  Alcotest.(check bool) "faults handled" true (s.Vrm.Scenario.st_s2_faults > 0);
  Alcotest.(check bool) "IPIs delivered" true (s.Vrm.Scenario.st_vipis > 0)

let test_stress_more_vms () =
  let s = Vrm.Scenario.stress_run ~n_vms:8 ~rounds:2 () in
  Alcotest.(check int) "eight VMs" 8 s.Vrm.Scenario.st_vms

let test_stress_3level () =
  (* the other verified stage-2 geometry under the same load *)
  let s =
    Vrm.Scenario.stress_run
      ~config:
        { Kcore.default_boot_config with
          Kcore.stage2_geometry = Machine.Page_table.three_level }
      ~n_vms:4 ~rounds:2 ()
  in
  Alcotest.(check bool) "clean" true (s.Vrm.Scenario.st_guest_ops > 0)

let test_stress_4level () =
  let s =
    Vrm.Scenario.stress_run
      ~config:
        { Kcore.default_boot_config with
          Kcore.stage2_geometry = Machine.Page_table.four_level;
          s2_pool_pages = 256 }
      ~n_vms:4 ~rounds:2 ()
  in
  Alcotest.(check bool) "clean" true (s.Vrm.Scenario.st_guest_ops > 0)

(* Wide run outside the test suite: VRM_FUZZ_SEEDS=n sweeps storms
   0 .. n-1 (`make fuzz`), reports its wall time and rate and the census
   against its floors, and exits non-zero if any storm fails or any
   label misses its floor. *)
let sweep n =
  let t0 = Unix.gettimeofday () in
  let failed = List.filter (fun seed -> not (storm seed)) (List.init n Fun.id) in
  let elapsed = Unix.gettimeofday () -. t0 in
  Format.printf "%d storms, %d failed%s@." n (List.length failed)
    (if failed = [] then ""
     else ": " ^ String.concat " " (List.map string_of_int failed));
  Format.printf "%.1f s elapsed, %.0f storms/s@." elapsed
    (float_of_int n /. elapsed);
  let floors = scaled_floors n in
  Format.printf "census (what the storms drew, against its floors):@.";
  List.iter
    (fun (label, floor) ->
      Format.printf "  %-26s %8d  floor %d@." label (Cover.count census label)
        floor)
    floors;
  let missed = Cover.missed census floors in
  if missed <> [] then
    Format.printf "%d labels below their floor: %s@." (List.length missed)
      (String.concat ", " (List.map fst missed));
  exit (if failed = [] && missed = [] then 0 else 1)

let () =
  Option.iter sweep
    (Option.bind (Sys.getenv_opt "VRM_FUZZ_SEEDS") int_of_string_opt);
  Alcotest.run "fuzz"
    [ ( "fuzz",
        [ qcheck_fuzz;
          Alcotest.test_case "DMA-isolation regressions" `Quick
            test_dma_regressions;
          Alcotest.test_case "long run" `Quick test_long_fuzz;
          Alcotest.test_case "storm trajectories" `Quick
            test_storm_trajectories;
          Alcotest.test_case "census floors" `Quick test_census;
          Alcotest.test_case "sparse tally = full tally" `Quick
            test_sparse_tally ] );
      ( "stress",
        [ Alcotest.test_case "4 VMs x 3 rounds" `Quick test_stress_scenario;
          Alcotest.test_case "8 VMs" `Quick test_stress_more_vms;
          Alcotest.test_case "3-level geometry" `Quick test_stress_3level;
          Alcotest.test_case "4-level geometry" `Quick test_stress_4level ] ) ]
