(** W005 — TLBI-follows-PT-write path checking
    (Sequential-TLB-Invalidation).

    A store that changes a live stage-2 page-table entry (abstract prior
    value known non-zero, or unknown) must be followed, on every path,
    by a DMB(ST)/DMB(full) and then a TLBI covering the entry (a TLBI
    with no operand covers everything; one with an operand covers its
    base). Diagnostics distinguish the three failure shapes: no TLBI at
    all, a TLBI not ordered by a DMB, and a TLBI sequenced before the
    write it should invalidate.

    Each live-entry store opens a pending obligation, carrying must-flags
    for certainty, that the first covering TLBI resolves — reporting the
    no-DMB shape if no barrier must-intervened — or that is reported at
    thread exit as TLBI-before or no-TLBI. [Definite] requires the prior
    value to be known non-zero and the defect to occur on every path
    through a definitely-reached store; unknown priors, non-constant offsets,
    atomic RMWs on PT bases and multi-writer PT bases degrade to
    [Possible] (dynamic fallback). *)

open Memmodel

val run : Prog.t -> Diag.t list * Absint.stats list
(** Diagnostics plus the solver statistics of every thread fixpoint. *)
