(** W008 — delay-set / critical-cycle fence analysis (Shasha–Snir).

    On Arm, two program-order accesses of one thread may be observed out
    of order unless a fence or an ordered (acquire/release) access
    enforces the pair. Following Shasha and Snir, the pairs that {e
    must} be enforced are exactly those lying on a critical cycle: a
    cycle alternating program-order edges with inter-thread conflict
    edges (same base, at least one write, offsets compatible). This pass
    builds the static conflict graph over the accesses of every thread
    pair and reports each unenforced program-order pair on a minimal
    (two threads, two accesses each) critical cycle, with a
    fence-insertion fix matched to the pair's shape (R→_ : DMB(LD) or
    acquire; W→W : DMB(ST) or release; W→R : full DMB).

    Scope and deliberate approximations:
    - Accesses to lock-implementation bases ({!Cfg.is_lock_base}) take
      no part in conflict edges: lock internals are exempt from wDRF
      and verified by refinement/exploration directly, and their
      ticket/MCS protocols are cyclic by design.
    - Same-location program-order pairs are never segments
      (coherence orders them); unknown offsets conflict with
      everything.
    - Accesses in sibling [If] branches are mutually exclusive, hence
      never program-ordered; cross-iteration loop pairs are ignored
      (an under-approximation).

    Findings are always [Possible] — the analysis is control-flow
    insensitive on purpose (an event on any path can participate), so
    it never claims a guaranteed dynamic witness. The pass is a
    structural scan and carries no solver statistics. *)

open Memmodel

val run : Prog.t -> Diag.t list
