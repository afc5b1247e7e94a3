(** The KCore kernel-code corpus, in the memmodel DSL.

    These are the synchronization-relevant code paths of §5, written as
    concurrent DSL programs so the VRM checkers can certify them: the
    ticket-lock-protected VMID allocator, the vCPU-context ownership
    protocol, VM-state updates under the per-VM lock, page-ownership
    bookkeeping for sharing, and multi-variable critical sections. Each
    corpus entry carries the metadata the certifier needs (which bases are
    lock-implementation internals, exploration budget) plus the expected
    verdict — including deliberately seeded buggy variants that specific
    conditions must reject.

    The [versions] list mirrors §5.6: the corpus is instantiated for each
    supported Linux version and both stage-2 geometries; the
    synchronization skeleton is identical across versions (which is why
    the paper could verify eight versions with modest effort), so each
    instantiation re-certifies the same conditions under its own
    configuration record. *)

open Memmodel
open Expr

type expect = {
  e_drf : bool;  (** DRF-Kernel should hold *)
  e_barrier : bool;  (** No-Barrier-Misuse should hold *)
  e_refine : bool;  (** behaviors(RM) ⊆ behaviors(SC) should hold *)
}

let all_good = { e_drf = true; e_barrier = true; e_refine = true }

type entry = {
  name : string;
  prog : Prog.t;
  exempt : string list;  (** lock-implementation bases, exempt from DRF *)
  initial_owners : (string * int) list;
      (** bases a CPU owns at fragment entry (e.g. the vCPU context a
          running CPU claimed before this code path) *)
  expect : expect;
  rm_config : Promising.config;
  note : string;
}

let lockcfg =
  { Promising.default_config with loop_fuel = 3; max_promises = 0;
    cert_depth = 32 }

let lockcfg1 = { lockcfg with max_promises = 1 }

(* ------------------------------------------------------------------ *)
(* gen_vmid under the core ticket lock (§5.2, Fig. 1 + Fig. 7)         *)
(* ------------------------------------------------------------------ *)

let gen_vmid_code ~barriers tid =
  let vmid = Reg.v "vmid" in
  let body =
    [ Instr.load vmid (at "next_vmid");
      Instr.if_
        (r vmid < c 4)
        [ Instr.store (at "next_vmid") (r vmid + c 1) ]
        [ Instr.Panic ] ]
  in
  Prog.thread tid
    (Ticket_lock.dsl_critical ~barriers ~name:"core"
       ~protects:[ "next_vmid" ] body)

let gen_vmid_prog ~barriers name =
  Prog.make ~name
    ~observables:
      [ Prog.Obs_reg (1, Reg.v "vmid"); Prog.Obs_reg (2, Reg.v "vmid") ]
    ~shared_bases:
      [ "next_vmid"; Ticket_lock.ticket_base "core";
        Ticket_lock.now_base "core" ]
    [ gen_vmid_code ~barriers 1; gen_vmid_code ~barriers 2 ]

let vmid_alloc =
  { name = "gen_vmid";
    prog = gen_vmid_prog ~barriers:true "gen_vmid";
    exempt = Ticket_lock.lock_bases "core";
    initial_owners = [];
    expect = all_good;
    rm_config = lockcfg1;
    note = "VMID allocation under the Linux ticket lock (Fig. 1/7)" }

let vmid_alloc_nobarrier =
  { name = "gen_vmid-nobarrier";
    prog = gen_vmid_prog ~barriers:false "gen_vmid-nobarrier";
    exempt = Ticket_lock.lock_bases "core";
    initial_owners = [];
    expect = { e_drf = true; e_barrier = false; e_refine = false };
    rm_config = lockcfg;
    note = "Example 2: same code without acquire/release; DRF on SC but \
            broken on Arm" }

(* ------------------------------------------------------------------ *)
(* vCPU context switch via the ownership variable (§5.2, Example 3)    *)
(* ------------------------------------------------------------------ *)

let vcpu_prog ~barriers name =
  let save =
    [ Instr.store (at "vcpu_ctxt") (c 42);
      Instr.push [ "vcpu_ctxt" ];
      (if barriers then Instr.store_rel (at "vcpu_state") (c 0)
       else Instr.store (at "vcpu_state") (c 0)) ]
  in
  let restore =
    [ (if barriers then Instr.load_acq (Reg.v "st") (at "vcpu_state")
       else Instr.load (Reg.v "st") (at "vcpu_state"));
      Instr.if_
        (r (Reg.v "st") = c 0)
        [ Instr.store (at "vcpu_state") (c 1);
          Instr.pull [ "vcpu_ctxt" ];
          Instr.load (Reg.v "ctxt") (at "vcpu_ctxt") ]
        [ Instr.move (Reg.v "ctxt") (c (-1)) ] ]
  in
  Prog.make ~name
    ~init:[ (Loc.v "vcpu_ctxt", 7); (Loc.v "vcpu_state", 1) ]
    ~observables:
      [ Prog.Obs_reg (2, Reg.v "st"); Prog.Obs_reg (2, Reg.v "ctxt") ]
    ~shared_bases:[ "vcpu_ctxt"; "vcpu_state" ]
    [ Prog.thread 1 save; Prog.thread 2 restore ]

let vcpu_switch =
  { name = "vcpu-switch";
    prog = vcpu_prog ~barriers:true "vcpu-switch";
    exempt = [ "vcpu_state" ];  (* the synchronization variable itself *)
    initial_owners = [ ("vcpu_ctxt", 0) ];  (* thread index 0 = the saver *)
    expect = all_good;
    rm_config = { lockcfg1 with loop_fuel = 4 };
    note = "ACTIVE/INACTIVE ownership protocol with release/acquire" }

let vcpu_switch_nobarrier =
  { name = "vcpu-switch-nobarrier";
    prog = vcpu_prog ~barriers:false "vcpu-switch-nobarrier";
    exempt = [ "vcpu_state" ];
    initial_owners = [ ("vcpu_ctxt", 0) ];
    expect = { e_drf = true; e_barrier = false; e_refine = false };
    rm_config = { lockcfg1 with loop_fuel = 4 };
    note = "Example 3: stale context restorable on Arm" }

(* ------------------------------------------------------------------ *)
(* Multi-variable critical section: VM state + boot bookkeeping        *)
(* ------------------------------------------------------------------ *)

let vm_boot_prog ~barriers name =
  (* two CPUs race to transition the VM from Registered(0) to
     Verified(1) and set the image hash; the lock must ensure exactly one
     wins and the hash matches the winner *)
  let work tid =
    let st = Reg.v "st" in
    Prog.thread tid
      (Ticket_lock.dsl_critical ~barriers ~name:"vm"
         ~protects:[ "vm_state"; "image_hash" ]
         [ Instr.load st (at "vm_state");
           Instr.if_
             (r st = c 0)
             [ Instr.store (at "vm_state") (c 1);
               Instr.store (at "image_hash") (c (Stdlib.( + ) 100 tid)) ]
             [] ])
  in
  Prog.make ~name
    ~observables:[ Prog.Obs_loc (Loc.v "vm_state"); Prog.Obs_loc (Loc.v "image_hash") ]
    ~shared_bases:
      ([ "vm_state"; "image_hash" ] @ Ticket_lock.lock_bases "vm")
    [ work 1; work 2 ]

let vm_boot =
  { name = "vm-boot-state";
    prog = vm_boot_prog ~barriers:true "vm-boot-state";
    exempt = Ticket_lock.lock_bases "vm";
    initial_owners = [];
    expect = all_good;
    rm_config = lockcfg1;
    note = "per-VM lock protects the state/image-hash pair during boot" }

(* ------------------------------------------------------------------ *)
(* Page sharing bookkeeping under the per-VM lock                      *)
(* ------------------------------------------------------------------ *)

let share_prog ~barriers name =
  (* CPU 1: VM shares a page (sets s2page.shared, bumps map_count);
     CPU 2: teardown path clears sharing. Both under the VM lock. *)
  let share =
    Prog.thread 1
      (Ticket_lock.dsl_critical ~barriers ~name:"vm"
         ~protects:[ "s2_shared"; "s2_mapcount" ]
         [ Instr.store (at "s2_shared") (c 1);
           Instr.load (Reg.v "mc") (at "s2_mapcount");
           Instr.store (at "s2_mapcount") (r (Reg.v "mc") + c 1) ])
  in
  let unshare =
    Prog.thread 2
      (Ticket_lock.dsl_critical ~barriers ~name:"vm"
         ~protects:[ "s2_shared"; "s2_mapcount" ]
         [ Instr.load (Reg.v "sh") (at "s2_shared");
           Instr.if_
             (r (Reg.v "sh") = c 1)
             [ Instr.store (at "s2_shared") (c 0);
               Instr.load (Reg.v "mc") (at "s2_mapcount");
               Instr.store (at "s2_mapcount") (r (Reg.v "mc") - c 1) ]
             [] ])
  in
  Prog.make ~name
    ~observables:
      [ Prog.Obs_loc (Loc.v "s2_shared"); Prog.Obs_loc (Loc.v "s2_mapcount") ]
    ~shared_bases:([ "s2_shared"; "s2_mapcount" ] @ Ticket_lock.lock_bases "vm")
    [ share; unshare ]

let share_page =
  { name = "share-page";
    prog = share_prog ~barriers:true "share-page";
    exempt = Ticket_lock.lock_bases "vm";
    initial_owners = [];
    expect = all_good;
    rm_config = lockcfg1;
    note = "s2page share/map_count updates under the per-VM lock" }

(* ------------------------------------------------------------------ *)
(* Page-table updates racing the MMU walker (the DRF exception)        *)
(* ------------------------------------------------------------------ *)

let pt_walker_prog ~barriers name =
  (* CPU 1 updates two PTE words inside the pt lock; CPU 2 plays the MMU
     hardware, reading both words with no synchronization whatsoever.
     The pte base is exempt from the ownership discipline — this is the
     DRF-Kernel side clause for page tables — so DRF and the barrier
     checker pass; but the walker's reads CAN be relaxed, so refinement
     fails. That is exactly why the paper discharges page tables with the
     Transactional-Page-Table condition instead of Theorem 2. *)
  let kernel =
    Prog.thread 1
      (Ticket_lock.dsl_critical ~barriers ~name:"pt" ~protects:[]
         [ Instr.store (at ~offset:(c 0) "pte") (c 0x20);
           Instr.store (at ~offset:(c 1) "pte") (c 0x21) ])
  in
  let walker =
    Prog.thread 2
      [ Instr.load (Reg.v "w1") (at ~offset:(c 1) "pte");
        Instr.load (Reg.v "w0") (at ~offset:(c 0) "pte") ]
  in
  Prog.make ~name
    ~init:[ (Loc.v ~index:0 "pte", 0x10); (Loc.v ~index:1 "pte", 0x11) ]
    ~observables:[ Prog.Obs_reg (2, Reg.v "w0"); Prog.Obs_reg (2, Reg.v "w1") ]
    ~shared_bases:("pte" :: Ticket_lock.lock_bases "pt")
    [ kernel; walker ]

let pt_walker_race =
  { name = "pt-walker-race";
    prog = pt_walker_prog ~barriers:true "pt-walker-race";
    exempt = "pte" :: Ticket_lock.lock_bases "pt";
    initial_owners = [];
    expect = { e_drf = true; e_barrier = true; e_refine = false };
    rm_config = lockcfg1;
    note = "the MMU-vs-kernel page-table race (Example 4's shape): exempt             from DRF, outside Theorem 2, discharged by the Transactional             and TLBI conditions instead" }

(* ------------------------------------------------------------------ *)
(* Extension: the MCS queue lock (see {!Mcs_lock})                     *)
(* ------------------------------------------------------------------ *)

let mcs_counter =
  { name = "mcs-counter";
    prog = Mcs_lock.counter_prog ~barriers:true "mcs-counter";
    exempt = Mcs_lock.lock_bases "m";
    initial_owners = [];
    expect = all_good;
    rm_config = lockcfg;
    note = "shared counter under the MCS queue lock (XCHG/CAS hand-off)" }

let mcs_handoff =
  { name = "mcs-handoff";
    prog = Mcs_lock.handoff_prog ~barriers:true "mcs-handoff";
    exempt = Mcs_lock.lock_bases "m";
    initial_owners = [ ("c", 0) ];  (* the owner holds the data at entry *)
    expect = all_good;
    rm_config = lockcfg1;
    note = "MCS lock hand-off to a queued waiter" }

let mcs_handoff_nobarrier =
  { name = "mcs-handoff-nobarrier";
    prog = Mcs_lock.handoff_prog ~barriers:false "mcs-handoff-nobarrier";
    exempt = Mcs_lock.lock_bases "m";
    initial_owners = [ ("c", 0) ];
    expect = { e_drf = true; e_barrier = false; e_refine = false };
    rm_config = lockcfg1;
    note = "MCS hand-off without release/acquire: stale data reachable" }

(* ------------------------------------------------------------------ *)
(* Seeded bugs beyond barrier omissions                                *)
(* ------------------------------------------------------------------ *)

let unlocked_counter =
  (* a shared counter updated with no lock at all: DRF-Kernel violation *)
  let bump tid =
    Prog.thread tid
      [ Instr.load (Reg.v "v") (at "counter");
        Instr.store (at "counter") (r (Reg.v "v") + c 1) ]
  in
  { name = "unlocked-counter";
    prog =
      Prog.make ~name:"unlocked-counter"
        ~observables:[ Prog.Obs_loc (Loc.v "counter") ]
        ~shared_bases:[ "counter" ]
        [ bump 1; bump 2 ];
    exempt = [];
    initial_owners = [];
    expect = { e_drf = false; e_barrier = true; e_refine = true };
    rm_config = lockcfg;
    note = "no pull/push, no lock: the DRF checker must reject" }

let push_without_pull =
  (* pushes a base it never pulled: ownership-discipline violation *)
  { name = "push-without-pull";
    prog =
      Prog.make ~name:"push-without-pull"
        ~observables:[ Prog.Obs_loc (Loc.v "counter") ]
        ~shared_bases:[ "counter" ]
        [ Prog.thread 1
            [ Instr.dmb;
              Instr.push [ "counter" ];
              Instr.store (at "counter") (c 1) ];
          Prog.thread 2 [ Instr.Nop ] ];
    exempt = [];
    initial_owners = [];
    expect = { e_drf = false; e_barrier = true; e_refine = true };
    rm_config = lockcfg;
    note = "push of a free base: the ownership validator must reject" }

(* ------------------------------------------------------------------ *)
(* Seeded bugs for the static analyzer (one per wDRF lint pass)        *)
(* ------------------------------------------------------------------ *)

let handoff_missing_dmb =
  (* message-passing hand-off with plain accesses only: DRF holds (the
     flag is read before the pull), but neither the push nor the pull is
     fulfilled by a barrier, so stale data is reachable *)
  let f = Reg.v "f" and v = Reg.v "v" in
  { name = "handoff-missing-dmb";
    prog =
      Prog.make ~name:"handoff-missing-dmb"
        ~observables:[ Prog.Obs_reg (2, v) ]
        ~shared_bases:[ "d"; "flag" ]
        [ Prog.thread 1
            [ Instr.store (at "d") (c 42);
              Instr.push [ "d" ];
              Instr.store (at "flag") (c 1) ];
          Prog.thread 2
            [ Instr.load f (at "flag");
              Instr.if_
                (r f = c 1)
                [ Instr.pull [ "d" ]; Instr.load v (at "d") ]
                [ Instr.move v (c (-1)) ] ] ];
    exempt = [ "flag" ];
    initial_owners = [ ("d", 0) ];
    expect = { e_drf = true; e_barrier = false; e_refine = false };
    rm_config = lockcfg1;
    note = "hand-off without DMB/release: W002 on both sides of the             transfer" }

let el2_double_map =
  (* the same EL2 page-table word mapped twice, no transaction around
     the remap: breaks Write-Once-Kernel-Mapping *)
  { name = "el2-double-map";
    prog =
      Prog.make ~name:"el2-double-map"
        ~init:[ (Loc.v ~index:0 "el2_pt", 0) ]
        ~observables:[ Prog.Obs_loc (Loc.v ~index:0 "el2_pt") ]
        ~shared_bases:[ "el2_pt" ]
        [ Prog.thread 1
            [ Instr.store (at ~offset:(c 0) "el2_pt") (c 5);
              Instr.store (at ~offset:(c 0) "el2_pt") (c 6) ];
          Prog.thread 2 [ Instr.Nop ] ];
    exempt = [ "el2_pt" ];
    initial_owners = [];
    expect = all_good;
    rm_config = lockcfg;
    note = "kernel mapping installed twice: W003; the dynamic checkers             don't watch EL2 writes, so only the lint rejects it" }

let read_outside_lock =
  (* a correct critical section followed by a stray unlocked read of the
     protected base *)
  let v = Reg.v "v" and stray = Reg.v "stray" in
  let locked tid extra =
    Prog.thread tid
      (Ticket_lock.dsl_critical ~barriers:true ~name:"cnt"
         ~protects:[ "counter2" ]
         [ Instr.load v (at "counter2");
           Instr.store (at "counter2") (r v + c 1) ]
      @ extra)
  in
  { name = "read-outside-lock";
    prog =
      Prog.make ~name:"read-outside-lock"
        ~observables:[ Prog.Obs_loc (Loc.v "counter2") ]
        ~shared_bases:("counter2" :: Ticket_lock.lock_bases "cnt")
        [ locked 1 [ Instr.load stray (at "counter2") ]; locked 2 [] ];
    exempt = Ticket_lock.lock_bases "cnt";
    initial_owners = [];
    expect = { e_drf = false; e_barrier = true; e_refine = true };
    rm_config = lockcfg1;
    note = "lock-protected counter read again after release: W001 at the             stray load" }

let pull_no_push =
  (* a thread pulls the base and exits without pushing: the ownership
     leak makes the other thread's pull a violation *)
  { name = "pull-no-push";
    prog =
      Prog.make ~name:"pull-no-push"
        ~observables:[ Prog.Obs_loc (Loc.v "c2") ]
        ~shared_bases:[ "c2" ]
        [ Prog.thread 1
            [ Instr.dmb; Instr.pull [ "c2" ];
              Instr.store (at "c2") (c 1) ];
          Prog.thread 2
            [ Instr.dmb; Instr.pull [ "c2" ];
              Instr.store (at "c2") (c 2);
              Instr.push [ "c2" ]; Instr.dmb ] ];
    exempt = [];
    initial_owners = [];
    expect = { e_drf = false; e_barrier = true; e_refine = true };
    rm_config = lockcfg;
    note = "pull without matching push: W006 leak, colliding with the             second CPU's pull" }

let remap_no_tlbi =
  (* a live stage-2 entry is remapped under the lock but never
     invalidated: breaks Sequential-TLB-Invalidation *)
  { name = "remap-no-tlbi";
    prog =
      Prog.make ~name:"remap-no-tlbi"
        ~init:[ (Loc.v ~index:0 "pte2", 0x20) ]
        ~observables:[ Prog.Obs_loc (Loc.v ~index:0 "pte2") ]
        ~shared_bases:("pte2" :: Ticket_lock.lock_bases "pt")
        [ Prog.thread 1
            (Ticket_lock.dsl_critical ~barriers:true ~name:"pt"
               ~protects:[]
               [ Instr.store (at ~offset:(c 0) "pte2") (c 0x30) ]);
          Prog.thread 2 [ Instr.Nop ] ];
    exempt = "pte2" :: Ticket_lock.lock_bases "pt";
    initial_owners = [];
    expect = all_good;
    rm_config = lockcfg1;
    note = "live PTE remapped with no TLBI: W005 (no-TLBI shape)" }

let tlbi_before_write =
  (* the TLBI is sequenced before the write it should invalidate *)
  { name = "tlbi-before-write";
    prog =
      Prog.make ~name:"tlbi-before-write"
        ~init:[ (Loc.v ~index:0 "pte3", 0x11) ]
        ~observables:[ Prog.Obs_loc (Loc.v ~index:0 "pte3") ]
        ~shared_bases:("pte3" :: Ticket_lock.lock_bases "pt")
        [ Prog.thread 1
            (Ticket_lock.dsl_critical ~barriers:true ~name:"pt"
               ~protects:[]
               [ Instr.tlbi (at ~offset:(c 0) "pte3");
                 Instr.store (at ~offset:(c 0) "pte3") (c 0x40) ]);
          Prog.thread 2 [ Instr.Nop ] ];
    exempt = "pte3" :: Ticket_lock.lock_bases "pt";
    initial_owners = [];
    expect = all_good;
    rm_config = lockcfg1;
    note = "TLBI precedes the remap: W005 (wrong-order shape)" }

let split_transaction =
  (* a page-table transaction interleaves an unrelated write between two
     PTE updates while another CPU walks the table *)
  let w0 = Reg.v "w0" and w1 = Reg.v "w1" in
  { name = "split-transaction";
    prog =
      Prog.make ~name:"split-transaction"
        ~init:[ (Loc.v ~index:0 "pte4", 0); (Loc.v ~index:1 "pte4", 0) ]
        ~observables:[ Prog.Obs_reg (2, w0); Prog.Obs_reg (2, w1) ]
        ~shared_bases:
          ("pte4" :: "scratch" :: Ticket_lock.lock_bases "pt")
        [ Prog.thread 1
            (Ticket_lock.dsl_critical ~barriers:true ~name:"pt"
               ~protects:[ "scratch" ]
               [ Instr.store (at ~offset:(c 0) "pte4") (c 0x21);
                 Instr.store (at "scratch") (c 1);
                 Instr.store (at ~offset:(c 1) "pte4") (c 0x22) ]);
          Prog.thread 2
            [ Instr.load w1 (at ~offset:(c 1) "pte4");
              Instr.load w0 (at ~offset:(c 0) "pte4") ] ];
    exempt = "pte4" :: Ticket_lock.lock_bases "pt";
    initial_owners = [];
    expect = { e_drf = true; e_barrier = true; e_refine = false };
    rm_config = lockcfg1;
    note = "PTE updates split by an unrelated write: W004; the walker can             observe the half-updated table" }

let walker_no_isb =
  (* a software walker branches on a PT root and keeps loading without
     an ISB: advisory W007 only, every checker passes *)
  let r0 = Reg.v "r0" and r1 = Reg.v "r1" in
  { name = "walker-no-isb";
    prog =
      Prog.make ~name:"walker-no-isb"
        ~init:
          [ (Loc.v ~index:0 "pt_root", 1); (Loc.v ~index:0 "pte5", 0x33) ]
        ~observables:[ Prog.Obs_reg (1, r1) ]
        ~shared_bases:[ "pt_root"; "pte5" ]
        [ Prog.thread 1
            [ Instr.load r0 (at ~offset:(c 0) "pt_root");
              Instr.if_
                (r r0 <> c 0)
                [ Instr.load r1 (at ~offset:(c 0) "pte5") ]
                [ Instr.move r1 (c (-1)) ] ];
          Prog.thread 2 [ Instr.Nop ] ];
    exempt = [ "pt_root"; "pte5" ];
    initial_owners = [];
    expect = all_good;
    rm_config = lockcfg;
    note = "control-dependent walk with no ISB: advisory W007, verdict             Unknown, dynamic fallback stays green" }

let el2_loop_remap =
  (* the same EL2 word rewritten on every loop iteration: the overwrite
     only manifests on the second pass, which a 0/1-unrolling path
     enumeration never sees; the analyzer's loop peeling must *)
  let i = Reg.v "i" in
  { name = "el2-loop-remap";
    prog =
      Prog.make ~name:"el2-loop-remap"
        ~init:[ (Loc.v ~index:0 "el2_lc", 0) ]
        ~observables:[ Prog.Obs_loc (Loc.v ~index:0 "el2_lc") ]
        ~shared_bases:[ "el2_lc" ]
        [ Prog.thread 1
            [ Instr.move i (c 0);
              Instr.while_ (r i < c 2)
                [ Instr.store (at ~offset:(c 0) "el2_lc") (c 7);
                  Instr.move i (r i + c 1) ] ];
          Prog.thread 2 [ Instr.Nop ] ];
    exempt = [ "el2_lc" ];
    initial_owners = [];
    expect = all_good;
    rm_config = lockcfg;
    note = "loop-carried double map: the second iteration overwrites the             first; 0/1 loop unrolling misses it, loop peeling             pins W003" }

(* ------------------------------------------------------------------ *)
(* Symmetric vCPU stress family (thread-symmetry reduction corpus)     *)
(* ------------------------------------------------------------------ *)

(* N byte-identical vCPUs hammering one lock word and one page-table
   slot: each takes a ticket with an atomic fetch-and-add and writes its
   (ticket-derived) PTE value into the shared slot. Every thread's
   instruction stream is the same byte sequence and no per-thread
   register is observable, so {!Memmodel.Symmetry.detect} puts all N
   threads in one group — the canonical seen-set collapses
   thread-permuted states, cutting the explored space by up to N!. The
   body is deliberately two instructions: it keeps the sym-off arm of
   the n=5 entry inside the Promising state valve, so the bench's
   [print_symmetry] section and the golden-parity tests can run both
   arms to completion and assert digest equality. *)
let sym_stress_code tid =
  let tkt = Reg.v "tkt" in
  Prog.thread tid
    [ Instr.faa tkt (at "sym_lock") (c 1);
      Instr.store (at "sym_pte") (r tkt + c 1) ]

let sym_stress_prog n name =
  Prog.make ~name
    ~observables:
      [ Prog.Obs_loc (Loc.v "sym_lock"); Prog.Obs_loc (Loc.v "sym_pte") ]
    ~shared_bases:[ "sym_lock"; "sym_pte" ]
    (List.init n (fun i -> sym_stress_code (succ i)))

let sym_stress n =
  let name = Printf.sprintf "sym-stress-%d" n in
  { name;
    prog = sym_stress_prog n name;
    (* both bases exempt: the stress family exercises the state-space
       reduction, not the ownership discipline — and an empty tracked
       set is what lets the ownership checker canonicalize too *)
    exempt = [ "sym_lock"; "sym_pte" ];
    initial_owners = [];
    expect = all_good;
    rm_config = lockcfg;
    note =
      Printf.sprintf
        "%d interchangeable vCPUs on one lock + one PTE slot: the \
         thread-symmetry reduction corpus"
        n }

(** sym-stress-3/4/5: the thread-symmetry stress family, one entry per
    vCPU count. *)
let sym_corpus = [ sym_stress 3; sym_stress 4; sym_stress 5 ]

(* ------------------------------------------------------------------ *)
(* The corpus, per verified KVM version (§5.6)                         *)
(* ------------------------------------------------------------------ *)

let corpus =
  [ vmid_alloc; vcpu_switch; vm_boot; share_page; mcs_counter; mcs_handoff ]

let buggy_corpus =
  [ vmid_alloc_nobarrier; vcpu_switch_nobarrier; mcs_handoff_nobarrier;
    unlocked_counter; push_without_pull ]

(** Not buggy, but outside Theorem 2's scope: page-table words racing the
    MMU walker. In the certificate it documents {e why} conditions 4 and
    5 exist. *)
let boundary_corpus = [ pt_walker_race ]

(** Seeded inputs for the static analyzer, one per lint pass: each is
    designed to trip exactly the warning codes pinned in
    {!lint_expectations}. *)
let lint_corpus =
  [ handoff_missing_dmb; el2_double_map; read_outside_lock; pull_no_push;
    remap_no_tlbi; tlbi_before_write; split_transaction; walker_no_isb;
    el2_loop_remap ]

(** Expected {e definite} warning codes per corpus entry — the contract
    the cross-validation harness pins down. An entry missing from this
    table fails the harness, so adding a program forces deciding what the
    analyzer must say about it. *)
let lint_expectations =
  [ ("gen_vmid", []);
    ("vcpu-switch", []);
    ("vm-boot-state", []);
    ("share-page", []);
    ("mcs-counter", []);
    ("mcs-handoff", []);
    ("gen_vmid-nobarrier", [ "W002" ]);
    ("vcpu-switch-nobarrier", [ "W002" ]);
    ("mcs-handoff-nobarrier", [ "W002" ]);
    ("unlocked-counter", [ "W001" ]);
    ("push-without-pull", [ "W001"; "W006" ]);
    ("pt-walker-race", [ "W005" ]);
    ("handoff-missing-dmb", [ "W002" ]);
    ("el2-double-map", [ "W003" ]);
    ("read-outside-lock", [ "W001" ]);
    ("pull-no-push", [ "W006" ]);
    ("remap-no-tlbi", [ "W005" ]);
    ("tlbi-before-write", [ "W005" ]);
    ("split-transaction", [ "W004" ]);
    ("walker-no-isb", []);
    ("el2-loop-remap", [ "W003" ]) ]

type version = {
  linux : string;
  stage2_levels : int;
}

(** The eight retrofitted KVM versions the paper verifies, each available
    with both stage-2 geometries where supported. *)
let versions =
  [ { linux = "4.18"; stage2_levels = 4 };
    { linux = "4.18"; stage2_levels = 3 };
    { linux = "4.20"; stage2_levels = 4 };
    { linux = "5.0"; stage2_levels = 4 };
    { linux = "5.1"; stage2_levels = 4 };
    { linux = "5.2"; stage2_levels = 4 };
    { linux = "5.3"; stage2_levels = 4 };
    { linux = "5.4"; stage2_levels = 4 };
    { linux = "5.4"; stage2_levels = 3 };
    { linux = "5.5"; stage2_levels = 4 } ]
