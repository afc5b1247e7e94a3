(** W001 — lockset-style static race detection (Eraser's discipline over
    the push/pull DSL).

    Per thread, ownership of tracked bases (shared minus exempt) is a
    must/may owned-set lattice over the thread CFG: an access to a
    tracked base the thread may not own is a W001 finding — [Definite]
    when the base is unowned even on the may-set at a definitely-reached
    access, since every SC interleaving then exhibits the unowned access
    and the dynamic DRF checker panics.

    Whole-program, the pass proves that claims on each tracked base are
    mutually exclusive: at most one claimant (puller or initial owner), or
    every pull lock-guarded — preceded, past lock-internal accesses
    only, by an atomic RMW on one common exempt base on every incoming
    path — and matched by a push before any exempt base is written (the
    lock cannot be released inside the bracket). Both facts come from a
    forward guard/balance dataflow per thread. Anything else (flag
    protocols, hand-offs) is a [Possible] finding: the verdict degrades to
    Unknown and the service falls back to exhaustive exploration. *)

open Memmodel

val run :
  exempt:string list ->
  initial_owners:(string * int) list ->
  Prog.t ->
  Diag.t list * Absint.stats list
(** Diagnostics plus the solver statistics of every thread fixpoint. *)
