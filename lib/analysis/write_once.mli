(** W003 — write-once kernel-mapping analysis.

    EL2 page-table cells ([el2*] bases) must be mapped at most once
    outside a transactional (pull/push) section. The shared must-memory
    lattice {!Absint.Mem} tracks cell values over the thread CFG and the
    transactional depth is an interval (widened to unbounded by
    pull-heavy loops). A store to a cell whose abstract value is already
    known non-zero, at depth 0, is a finding — [Definite] when the
    must-prior is a known non-zero, the depth interval is exactly [0,0]
    and the store is definitely reached, since every SC interleaving
    then performs the double mapping and the replay referee reports it.
    Loop peeling catches loop-carried double installs, which only show
    on a loop's second iteration.

    Stores whose target offset is not statically constant, and atomic RMWs
    on EL2 bases, smudge the base and degrade to [Possible]. When two or
    more threads write the same EL2 base, per-thread constant tracking is
    unsound (another thread may install the first mapping), so the pass
    emits a program-level [Possible] finding and leaves the verdict to the
    dynamic referee. *)

open Memmodel

(** [multi_writer_bases pred prog] — bases satisfying [pred] that two or
    more threads write (structurally). Shared with the W005 pass. *)
val multi_writer_bases : (string -> bool) -> Prog.t -> string list

val run : Prog.t -> Diag.t list * Absint.stats list
(** Diagnostics plus the solver statistics of every thread fixpoint. *)
