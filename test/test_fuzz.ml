(* Whole-system fuzzing: random sequences of hypercalls, guest operations
   and KServ attacks against a live SeKVM instance, with the security
   invariants re-checked after every step. Also the deterministic
   multi-VM stress scenario. *)

open Sekvm
open Machine

let cfg = Kcore.default_boot_config

(* A small deterministic PRNG so failures reproduce from the seed. *)
module Rng = struct
  type t = { mutable s : int }

  let create seed = { s = (seed * 2 + 1) land 0x3fffffff }

  let next t =
    t.s <- (t.s * 1103515245 + 12345) land 0x3fffffff;
    t.s

  let below t n = next t mod n

  let pick t l = List.nth l (below t (List.length l))
end

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
let step (rng : Rng.t) (st : fuzz_state) : unit =
  st.steps <- st.steps + 1;
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
      | Ok vmid -> st.live_vms <- vmid :: st.live_vms
      | Error _ -> ()
      | exception Kserv.Out_of_memory -> ())
  | 1 when st.live_vms <> [] ->
      let vmid = Rng.pick rng st.live_vms in
      st.live_vms <- List.filter (fun v -> v <> vmid) st.live_vms;
      Kcore.teardown_vm st.kcore ~cpu ~vmid
  | 2 when st.live_vms <> [] ->
      ignore (Kcore.snapshot_vm st.kcore ~cpu ~vmid:(Rng.pick rng st.live_vms))
  | 3 | 4 ->
      (* KServ attacks with random frames: must never corrupt anything *)
      let pfn = Rng.below rng (Phys_mem.n_pages st.kcore.Kcore.mem) in
      ignore (Kserv.attack_read_vm_page st.kserv ~cpu ~pfn);
      ignore (Kserv.attack_write_vm_page st.kserv ~cpu ~pfn 0xbad);
      if st.live_vms <> [] then (
        (* "stealing" a page KServ happens to own is just a legitimate
           donation; keep the host's free list honest when it succeeds *)
        match
          Kserv.attack_steal_page st.kserv ~cpu ~victim_pfn:pfn
            ~vmid:(Rng.pick rng st.live_vms)
            ~ipa:(Page_table.page_va (200 + Rng.below rng 16))
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
          let pfn = Rng.below rng (Phys_mem.n_pages st.kcore.Kcore.mem) in
          match
            Kcore.map_page_to_vm st.kcore ~cpu ~vmid:(Rng.pick rng vms)
              ~ipa:(Page_table.page_va (300 + Rng.below rng 16))
              ~pfn
          with
          | Ok () ->
              st.kserv.Kserv.free_pfns <-
                List.filter (fun p -> p <> pfn) st.kserv.Kserv.free_pfns
          | Error `Denied -> ())
  | 6 -> (
      (* SMMU lifecycle with random (often illegal) arguments *)
      let device = Rng.below rng 4 in
      match st.live_vms with
      | [] -> ()
      | vms ->
          let owner =
            if Rng.below rng 2 = 0 then Machine.S2page.Kserv
            else Machine.S2page.Vm (Rng.pick rng vms)
          in
          ignore (Kcore.smmu_attach st.kcore ~cpu ~device ~owner);
          let pfn = Rng.below rng (Phys_mem.n_pages st.kcore.Kcore.mem) in
          ignore
            (Kcore.smmu_map st.kcore ~cpu ~device
               ~iova:(Page_table.page_va (Rng.below rng 8))
               ~pfn);
          if Rng.below rng 2 = 0 then
            ignore
              (Kcore.smmu_unmap st.kcore ~cpu ~device
                 ~iova:(Page_table.page_va (Rng.below rng 8))))
  | _ -> (
      match st.live_vms with
      | [] -> ()
      | vms -> (
          let vmid = Rng.pick rng vms in
          let vcpuid = Rng.below rng 2 in
          let ops = List.init (1 + Rng.below rng 4) (fun _ -> random_guest_op ()) in
          try ignore (Kserv.run_guest st.kserv ~cpu ~vmid ~vcpuid ops)
          with Kserv.Out_of_memory -> ()))

let run_fuzz_from st seed n_steps =
  let rng = Rng.create seed in
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
  !ok

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
      tree
        (Printf.sprintf "vm %d %s" vmid (Kcore.show_vm_state vm.Kcore.vstate))
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

(* Storms 0-199 pinned to where they leave the system, computed before
   the invariant checker and the page-table planner were last reworked:
   a faster checker or planner must not change what a storm does. *)
let test_storm_trajectories () =
  let all = Buffer.create (1 lsl 20) in
  for seed = 0 to 199 do
    Buffer.add_string all (storm_fingerprint seed)
  done;

  Alcotest.(check string) "digest of storms 0-199" "9fc92d1d4ab140d0d8e0b1427cf5dfff"
    (Digest.to_hex (Digest.string (Buffer.contents all)))

let qcheck_fuzz =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 60 |])
    (QCheck.Test.make ~name:"random hypercall storms preserve the invariants"
       ~count:12
       QCheck.(int_bound 10_000)
       storm)

(* Storms that once handed a page a device could still DMA to (through
   its SMMU mapping) to a VM, via set_vm_image. *)
let test_dma_regressions () =
  List.iter
    (fun seed ->
      Alcotest.(check bool) (Printf.sprintf "storm %d clean" seed) true
        (storm seed))
    [ 228; 522; 630 ]

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
   0 .. n-1 (`make fuzz`), reports its wall time and rate, and exits
   non-zero if any storm fails. *)
let sweep n =
  let t0 = Unix.gettimeofday () in
  let failed = List.filter (fun seed -> not (storm seed)) (List.init n Fun.id) in
  let elapsed = Unix.gettimeofday () -. t0 in
  Format.printf "%d storms, %d failed%s@." n (List.length failed)
    (if failed = [] then ""
     else ": " ^ String.concat " " (List.map string_of_int failed));
  Format.printf "%.1f s elapsed, %.0f storms/s@." elapsed
    (float_of_int n /. elapsed);
  exit (if failed = [] then 0 else 1)

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
            test_storm_trajectories ] );
      ( "stress",
        [ Alcotest.test_case "4 VMs x 3 rounds" `Quick test_stress_scenario;
          Alcotest.test_case "8 VMs" `Quick test_stress_more_vms;
          Alcotest.test_case "3-level geometry" `Quick test_stress_3level;
          Alcotest.test_case "4-level geometry" `Quick test_stress_4level ] ) ]
