(** Checker for wDRF condition 6, (Weak-)Memory-Isolation (paper §4.3, §5.3).

    Three executable judgments:

    {ol
    {- {b Users cannot write kernel memory.} KCore's pages (static
       footprint, pools, and every page-table page) must be unreachable
       through any stage-2 table and any SMMU context — delegated to
       {!Sekvm.Kcore.check_invariants}, filtered to the isolation-relevant
       invariants.}
    {- {b Kernel reads of user memory are oracle-mediated.} The trace may
       contain [E_oracle_read] events (reads whose value the proofs treat
       as oracle-supplied) but no raw [E_mem_read] of a page KCore does
       not own.}
    {- {b Oracle independence} (the "weak" part). Running a scenario
       twice with the same oracle stream but different untrusted-program
       behavior must leave the kernel-observable state identical —
       executable evidence that the proofs do not depend on user
       implementations.}} *)

open Sekvm

type verdict = {
  holds : bool;  (** the weak condition, as SeKVM satisfies it (§4.3) *)
  strong_holds : bool;
      (** the strong condition: the kernel never reads user memory at all
          — fails for any SeKVM that authenticates images or snapshots
          VMs, which is precisely why the paper weakens it *)
  reachability_violations : Kcore.invariant_violation list;
  raw_user_reads : int;
  oracle_reads : int;
}

let isolation_invariants =
  [ "table-pages-kcore-owned"; "no-kcore-page-mapped"; "no-kcore-page-dma";
    "smmu-enabled" ]

let check (kcore : Kcore.t) : verdict =
  let reach =
    List.filter
      (fun v -> List.mem v.Kcore.inv isolation_invariants)
      (Kcore.check_invariants kcore)
  in
  let raw = ref 0 and oracled = ref 0 in
  List.iter
    (function
      | Trace.E_mem_read { owner; _ } when owner <> Machine.S2page.Kcore ->
          incr raw
      | Trace.E_oracle_read _ -> incr oracled
      | _ -> ())
    (Trace.events kcore.Kcore.trace);
  { holds = reach = [] && !raw = 0;
    strong_holds = reach = [] && !raw = 0 && !oracled = 0;
    reachability_violations = reach;
    raw_user_reads = !raw;
    oracle_reads = !oracled }

(** Oracle-independence experiment: [scenario] receives a freshly booted
    system and a "user behavior" knob, and returns a digest of the
    kernel-observable state. The verdict holds iff the digest is invariant
    across user behaviors. *)
let oracle_independent ~(behaviors : 'a list)
    ~(scenario : user:'a -> int) : bool =
  match List.map (fun user -> scenario ~user) behaviors with
  | [] -> true
  | d :: rest -> List.for_all (fun d' -> d' = d) rest

(** A canonical kernel-observable digest: ownership table + stage-2
    mapping shapes + hypercall counts. VM/KServ page {e contents} are
    deliberately excluded — they are user state. *)
let kernel_digest (kcore : Kcore.t) : int =
  let h = ref 0x811c9dc5 in
  let mix v = h := (!h * 0x01000193) lxor v in
  let module S2 = Machine.S2page in
  for pfn = 0 to S2.n_pages kcore.Kcore.s2page - 1 do
    mix
      (match S2.owner kcore.Kcore.s2page pfn with
      | S2.Kcore -> 1
      | S2.Kserv -> 2
      | S2.Vm v -> 100 + v);
    mix (if S2.is_shared kcore.Kcore.s2page pfn then 1 else 0);
    mix (S2.map_count kcore.Kcore.s2page pfn)
  done;
  List.iter
    (fun (vmid, vm) ->
      mix vmid;
      mix (match vm.Kcore.vstate with
          | Kcore.Registered -> 1 | Kcore.Verified -> 2 | Kcore.Torn_down -> 3);
      List.iter
        (fun (vp, pfn, _) ->
          mix vp;
          mix pfn)
        (Kcore.vm_mappings vm))
    kcore.Kcore.vms;
  mix kcore.Kcore.next_vmid;
  !h

let pp_verdict fmt v =
  if v.holds then
    Format.fprintf fmt
      "Memory-Isolation: %s HOLDS (kernel memory unreachable by users; %d \
       user-memory reads, all oracle-mediated)"
      (if v.strong_holds then "strong" else "weak")
      v.oracle_reads
  else
    Format.fprintf fmt
      "Memory-Isolation: VIOLATED (%d reachability violations, %d raw \
       user-memory reads)"
      (List.length v.reachability_violations)
      v.raw_user_reads
