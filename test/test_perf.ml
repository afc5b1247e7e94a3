(* Tests for the evaluation substrate: the cost model's mechanisms and the
   shape claims of Table 3, Figure 8 and Figure 9. *)

open Perf

let test_miss_cost_nested_blowup () =
  let p = Cost_model.m400_params in
  let kvm = Cost_model.miss_cost p Cost_model.Kvm ~stage2_levels:4 in
  let sekvm4 = Cost_model.miss_cost p Cost_model.Sekvm ~stage2_levels:4 in
  let sekvm3 = Cost_model.miss_cost p Cost_model.Sekvm ~stage2_levels:3 in
  Alcotest.(check bool) "nested much more expensive" true (sekvm4 > 4 * kvm);
  Alcotest.(check bool) "3-level cheaper than 4-level" true (sekvm3 < sekvm4);
  (* (m+1)(n+1)-1 with m=n=4 is 24 walk steps *)
  Alcotest.(check int) "nested step count" (24 * p.Cost_model.c_walk_step)
    sekvm4

let test_op_misses () =
  let p = Cost_model.m400_params in
  (* on the m400 the resident demand alone exceeds the TLB, so even small
     working sets see some pressure — but much less than large ones *)
  Alcotest.(check bool) "small ws, small pressure" true
    (Cost_model.op_misses p Cost_model.Sekvm ~ws:4
    < Cost_model.op_misses p Cost_model.Sekvm ~ws:100 /. 10.0);
  (* on Seattle a small working set fits outright *)
  Alcotest.(check bool) "fits: no misses" true
    (Cost_model.op_misses Cost_model.seattle_params Cost_model.Sekvm ~ws:4
     = 0.0);
  (* KVM's block mappings collapse the footprint to a single entry *)
  Alcotest.(check bool) "kvm blocks collapse footprint" true
    (Cost_model.op_misses p Cost_model.Kvm ~ws:100 < 0.3
    && Cost_model.op_misses p Cost_model.Kvm ~ws:100
       < Cost_model.op_misses p Cost_model.Sekvm ~ws:100 /. 50.0);
  (* SeKVM's 4K pages overflow the m400 TLB *)
  Alcotest.(check bool) "sekvm 4K pages thrash m400" true
    (Cost_model.op_misses p Cost_model.Sekvm ~ws:100 > 0.0);
  (* ... but not Seattle's 1024-entry TLB *)
  Alcotest.(check bool) "seattle unaffected" true
    (Cost_model.op_misses Cost_model.seattle_params Cost_model.Sekvm ~ws:100
     = 0.0)

let test_table3_shape () =
  let rows = Micro.table3 () in
  Alcotest.(check int) "8 rows" 8 (List.length rows);
  let ratio name hw =
    (List.find
       (fun (r : Micro.row) ->
         r.Micro.bench.Micro.name = name && r.Micro.hw_name = hw)
       rows)
      .Micro.overhead
  in
  List.iter
    (fun b ->
      Alcotest.(check bool) (b ^ ": sekvm slower") true (ratio b "m400" > 1.0);
      Alcotest.(check bool)
        (b ^ ": m400 worse than seattle")
        true
        (ratio b "m400" > ratio b "seattle");
      Alcotest.(check bool)
        (b ^ ": seattle in band")
        true
        (ratio b "seattle" >= 1.10 && ratio b "seattle" <= 1.35);
      Alcotest.(check bool)
        (b ^ ": m400 around 2x")
        true
        (ratio b "m400" >= 1.5 && ratio b "m400" <= 2.6))
    [ "Hypercall"; "I/O Kernel"; "I/O User"; "Virtual IPI" ];
  (* paper reference data is self-consistent *)
  List.iter
    (fun (r : Micro.row) ->
      match Micro.paper_overhead r.Micro.bench.Micro.name r.Micro.hw_name with
      | Some p ->
          Alcotest.(check bool) "within 0.35 of the paper ratio" true
            (Float.abs (p -. r.Micro.overhead) < 0.35)
      | None -> Alcotest.fail "missing paper reference")
    rows

let test_fig8_shape () =
  let pts = App_sim.figure8 () in
  Alcotest.(check int) "5 workloads x 2 hw x 2 versions x 2 hyps" 40
    (List.length pts);
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun hw ->
          List.iter
            (fun v ->
              let ov =
                App_sim.sekvm_overhead pts ~workload:w.Workload.name
                  ~hw_name:hw ~version:v
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s overhead < 10%%" w.Workload.name hw)
                true (ov < 0.10);
              Alcotest.(check bool) "overhead nonnegative" true (ov >= 0.0))
            [ App_sim.V4_18; App_sim.V5_4 ])
        [ "m400"; "seattle" ])
    Workload.all;
  (* the kernel-compile workload has the least virtualization exposure *)
  let ov name =
    App_sim.sekvm_overhead pts ~workload:name ~hw_name:"m400"
      ~version:App_sim.V4_18
  in
  Alcotest.(check bool) "kernbench least affected" true
    (ov "Kernbench" < ov "Hackbench")

let test_fig9_shape () =
  let pts = Multi_vm.figure9 () in
  Alcotest.(check int) "5 workloads x 2 hyps x 6 counts" 60 (List.length pts);
  let perf w hyp n =
    (List.find
       (fun (p : Multi_vm.point) ->
         p.Multi_vm.workload.Workload.name = w
         && p.Multi_vm.hypervisor = hyp && p.Multi_vm.n_vms = n)
       pts)
      .Multi_vm.normalized_perf
  in
  List.iter
    (fun (w : Workload.t) ->
      (* monotone decline *)
      let rec mono = function
        | a :: (b :: _ as rest) -> a >= b -. 1e-9 && mono rest
        | _ -> true
      in
      List.iter
        (fun hyp ->
          Alcotest.(check bool) "monotone" true
            (mono
               (List.map (fun n -> perf w.Workload.name hyp n)
                  Multi_vm.vm_counts)))
        [ Cost_model.Kvm; Cost_model.Sekvm ];
      (* the 10% claim *)
      Alcotest.(check bool)
        (w.Workload.name ^ " gap < 10%")
        true
        (Multi_vm.worst_gap pts ~workload:w.Workload.name < 0.10);
      (* beyond CPU saturation (8 VMs x 2 vCPUs > 8 CPUs) throughput halves *)
      Alcotest.(check bool) "cpu saturation at 8 VMs" true
        (perf w.Workload.name Cost_model.Kvm 8
        < 0.7 *. perf w.Workload.name Cost_model.Kvm 4))
    Workload.all

let test_neoverse_dispatch_floor () =
  (* the §6 forward-looking remark: on a modern large-TLB CPU, SeKVM's
     overhead is only KCore's dispatch/isolation work — the TLB term is
     exactly zero (huge pages change nothing), and the fixed software
     cost looms slightly larger on the faster machine *)
  List.iter
    (fun b ->
      let row = Micro.run_one Cost_model.neoverse_params ~stage2_levels:4 b in
      let hp =
        Micro.run_one ~kserv_hugepages:true Cost_model.neoverse_params
          ~stage2_levels:4 b
      in
      Alcotest.(check bool)
        (b.Micro.name ^ ": modest overhead")
        true
        (row.Micro.overhead > 1.0 && row.Micro.overhead < 1.5);
      Alcotest.(check int)
        (b.Micro.name ^ ": zero TLB term (hugepages change nothing)")
        row.Micro.sekvm_cycles hp.Micro.sekvm_cycles)
    Micro.all

let test_version_effect () =
  let pts = App_sim.figure8 () in
  let np version =
    (List.find
       (fun (p : App_sim.point) ->
         p.App_sim.workload.Workload.name = "Hackbench"
         && p.App_sim.hw_name = "m400" && p.App_sim.version = version
         && p.App_sim.hypervisor = Cost_model.Sekvm)
       pts)
      .App_sim.normalized_perf
  in
  Alcotest.(check bool) "5.4 at least as fast as 4.18" true
    (np App_sim.V5_4 >= np App_sim.V4_18)

let test_workload_profiles_sane () =
  List.iter
    (fun (w : Workload.t) ->
      Alcotest.(check bool) "io fraction in [0,1)" true
        (w.Workload.io_bound_fraction >= 0.0
        && w.Workload.io_bound_fraction < 1.0);
      Alcotest.(check bool) "positive native work" true
        (w.Workload.native_cycles > 0);
      let virt =
        Workload.virt_overhead_cycles Cost_model.m400_params Cost_model.Sekvm
          ~stage2_levels:4 w
      in
      Alcotest.(check bool) "virt overhead below native (else unusable)" true
        (virt < w.Workload.native_cycles))
    Workload.all

let qcheck_more_vms_never_faster =
  QCheck.Test.make ~name:"adding VMs never raises per-instance perf"
    ~count:100
    QCheck.(pair (int_range 1 31) (int_bound 4))
    (fun (n, wi) ->
      let w = List.nth Workload.all (wi mod List.length Workload.all) in
      let p hyp n = (Multi_vm.run_point hyp n w).Multi_vm.normalized_perf in
      p Cost_model.Sekvm (n + 1) <= p Cost_model.Sekvm n +. 1e-9
      && p Cost_model.Kvm (n + 1) <= p Cost_model.Kvm n +. 1e-9)

let () =
  Alcotest.run "perf"
    [ ( "cost-model",
        [ Alcotest.test_case "nested miss blowup" `Quick
            test_miss_cost_nested_blowup;
          Alcotest.test_case "op misses" `Quick test_op_misses;
          Alcotest.test_case "workload profiles" `Quick
            test_workload_profiles_sane ] );
      ( "shapes",
        [ Alcotest.test_case "table 3" `Quick test_table3_shape;
          Alcotest.test_case "figure 8" `Quick test_fig8_shape;
          Alcotest.test_case "figure 9" `Quick test_fig9_shape;
          Alcotest.test_case "version effect" `Quick test_version_effect;
          Alcotest.test_case "neoverse dispatch floor" `Quick
            test_neoverse_dispatch_floor;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1 |])
            qcheck_more_vms_never_faster ] ) ]
