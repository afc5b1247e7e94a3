(** The control-flow graph of a kernel-DSL thread, plus the shared
    vocabulary of the lint passes.

    Every instruction carries its {e structural path}: the root-to-leaf
    position ([2.0.1] = branch 0 of the instruction at index 2,
    instruction 1 within it). Structural paths do not depend on how the
    graph is traversed, which is what makes diagnostics deterministic
    and golden-testable.

    The certainty rule lives in the passes: a finding is [Definite] only
    when the abstract defect holds on every path reaching a
    definitely-reached program point. Since the SC executor runs every
    thread to completion in every interleaving, such a defect is
    guaranteed a dynamic witness — the soundness direction the
    cross-validation harness enforces. *)

open Memmodel

type step = {
  pt : int list;  (** structural path of the instruction *)
  ins : Instr.t;
}

(** {2 Base-name classification}

    The analyzer is name-driven, mirroring how the paper's side
    conditions partition state: lock-implementation internals
    (exempt from DRF), EL2 kernel mappings (Write-Once), and stage-2
    page tables (Transactional + TLBI). *)

val is_el2_base : string -> bool
(** EL2 kernel mappings (prefix [el2]): subject to Write-Once (W003). *)

val is_pt_base : string -> bool
(** Any page-table base: prefixes [el2], [pte], [pt_]. *)

val is_s2_pt_base : string -> bool
(** Stage-2/SMMU tables (PT but not EL2): subject to the Transactional
    and TLBI conditions (W004/W005). *)

val is_lock_base : string -> bool
(** Lock-implementation cells by naming convention: suffixes [.ticket],
    [.now], [.tail], [.locked], [.next]. *)

(** {2 Instruction views} *)

val access_base : Instr.t -> string option
(** The base a memory access touches; [None] for non-accesses. *)

val is_rmw : Instr.t -> bool
val writes_mem : Instr.t -> bool
(** [Store] or any RMW. *)

val const_of_vexp : Expr.vexp -> int option
(** Evaluate a register-free value expression. *)

val store_target : Instr.t -> (string * int option) option
(** For a [Store]: base and constant offset (if resolvable). *)

(** {2 Abstract values}

    Constant propagation for the Write-Once and TLBI passes: per
    location either a known integer or unknown ({!Absint.Mem}). *)

module Amem : sig
  type aval = Known of int | Unknown_val

  val init : pred:(string -> bool) -> Prog.t -> string * int -> aval
  (** Program-init value of a cell, tracking only bases satisfying
      [pred]: unlisted cells (and untracked bases) start at 0. *)
end

(** {2 Graph form}

    The CFG proper, consumed by the {!Absint} fixpoint engine. [If]
    contributes two guard edges that rejoin; [While] is peeled [peel]
    times (default {!default_peel}) and kept as a residual natural loop
    whose header is a widening point. Peeled copies retain the original
    structural positions, so a defect detected on iteration 2 of a loop
    reports the same [pt] as the source instruction. *)

type guard = {
  g_cond : Expr.bexp;
  g_taken : bool;  (** which side of the condition this edge takes *)
  g_pt : int list;  (** structural position of the [If]/[While] header *)
  g_loop : bool;  (** derived from a [While] (including peeled copies) *)
  g_ins : Instr.t;  (** the original header instruction *)
}

type label =
  | L_ins of step  (** execute one straight-line instruction *)
  | L_guard of guard  (** branch decision *)
  | L_skip  (** structural join edge *)

type gate = {
  gt_node : int;  (** node where the guard is evaluated *)
  gt_cond : Expr.bexp;
  gt_taken : bool;
}

type graph = {
  g_n : int;  (** node count; ids are [0 .. g_n-1] *)
  g_entry : int;
  g_exit : int;
  g_succ : (label * int) list array;
  g_gates : gate list array;
      (** enclosing guard decisions per node: a node executes iff every
          gate's condition evaluates in the gate's direction at the
          gate's evaluation site *)
  g_loop_head : bool array;  (** residual loop headers (widening points) *)
}

val default_peel : int

val graph : ?peel:int -> Instr.t list -> graph
(** Build the control-flow graph of a thread body. *)

(** {2 Findings} *)

type raw = {
  r_code : Diag.code;
  r_path : int list;
  r_message : string;
  r_fix : string;
  r_definite : bool;
      (** must-level defect at a definitely-reached point *)
}

val merge_raws : tid:int -> raw list -> Diag.t list
(** Raw findings of one thread as diagnostics: [r_definite] is the final
    certainty; duplicate findings merge keeping the strongest one. *)
