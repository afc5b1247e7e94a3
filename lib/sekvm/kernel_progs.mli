(** The KCore kernel-code corpus, in the memmodel DSL: the
    synchronization-relevant paths of paper §5 (ticket-lock VMID
    allocator, vCPU ownership protocol, per-VM-lock state updates,
    sharing bookkeeping, MCS lock) with the metadata the certifier needs
    and deliberately seeded buggy variants. *)

open Memmodel

type expect = {
  e_drf : bool;  (** DRF-Kernel should hold *)
  e_barrier : bool;  (** No-Barrier-Misuse should hold *)
  e_refine : bool;  (** behaviors(RM) ⊆ behaviors(SC) should hold *)
}

val all_good : expect

type entry = {
  name : string;
  prog : Prog.t;
  exempt : string list;  (** lock-implementation bases, exempt from DRF *)
  initial_owners : (string * int) list;
      (** bases a CPU owns at fragment entry *)
  expect : expect;
  rm_config : Promising.config;
  note : string;
}

val gen_vmid_prog : barriers:bool -> string -> Prog.t
val vcpu_prog : barriers:bool -> string -> Prog.t
val vm_boot_prog : barriers:bool -> string -> Prog.t
val share_prog : barriers:bool -> string -> Prog.t

val vmid_alloc : entry
val vmid_alloc_nobarrier : entry
val vcpu_switch : entry
val vcpu_switch_nobarrier : entry
val vm_boot : entry
val share_page : entry
val mcs_counter : entry
val mcs_handoff : entry
val mcs_handoff_nobarrier : entry
val unlocked_counter : entry
val push_without_pull : entry
val pt_walker_race : entry
val pt_walker_prog : barriers:bool -> string -> Prog.t

val corpus : entry list
(** The certified programs. *)

val buggy_corpus : entry list
(** Seeded violations, each failing exactly the condition it breaks. *)

val boundary_corpus : entry list
(** Programs outside Theorem 2's scope by design (page-table words racing
    the MMU walker): DRF-exempt, refinement-failing — the reason
    conditions 4 and 5 exist. *)

val sym_stress_prog : int -> string -> Prog.t
(** [sym_stress_prog n name]: [n] byte-identical vCPU threads (tids
    1..n), each fetch-and-adding a shared lock word and storing a
    ticket-derived value to a shared page-table slot. Only locations are
    observable, so all [n] threads form one symmetry group under
    {!Memmodel.Symmetry.detect}. *)

val sym_corpus : entry list
(** sym-stress-3/4/5: the thread-symmetry stress family ([sym_stress_prog]
    at n = 3, 4, 5). A separate list — not folded into {!corpus} — so the
    certified-corpus golden tables keep their size pins; the bench's
    symmetry section and the engine tests iterate it explicitly. *)

val handoff_missing_dmb : entry
val el2_double_map : entry
val read_outside_lock : entry
val pull_no_push : entry
val remap_no_tlbi : entry
val tlbi_before_write : entry
val split_transaction : entry
val walker_no_isb : entry
val el2_loop_remap : entry

val lint_corpus : entry list
(** Seeded inputs for the static analyzer ({!Analysis}), one per lint
    pass, each tripping exactly the codes pinned in
    {!lint_expectations}. *)

val lint_expectations : (string * string list) list
(** Expected {e definite} warning codes per corpus entry name (all
    corpora). The cross-validation harness treats a missing entry as a
    failure, so every program added to a corpus must also decide its
    expected static verdict here. *)

type version = { linux : string; stage2_levels : int }

val versions : version list
(** The verified KVM versions of §5.6 (Linux 4.18–5.5, both stage-2
    geometries where supported). *)
