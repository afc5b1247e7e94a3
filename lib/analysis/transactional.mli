(** W004 — transactional page-table section well-formedness.

    Stage-2 page-table bases ([pte*] / [pt_*], excluding [el2*]) may only
    be written inside a transactional section — a pull/push bracket, with
    the empty-bases bracket of a lock critical section counting — and the
    page-table writes within one section must be contiguous: the MMU
    walker on another CPU reads the table with no synchronization, so a
    half-updated table interleaved with unrelated writes, or an update
    outside any section, is observable.

    Findings (all mirrored exactly by the trace-replay referee):
    - a stage-2 PT store outside any section while another thread reads
      the table;
    - a PT store following an unrelated write in the same section that
      already performed PT stores;
    - a section that performed PT stores but is never closed on the path.

    The frame stack carries must/may flags per frame (saw-PT-write,
    pending-unrelated-write) and acquiring points as sets. A finding is
    [Definite] at the must level on a definitely-reached point; joins of
    stacks of different heights degrade the state to a dirty summary
    that reports [Possible] only. *)

open Memmodel

val run : Prog.t -> Diag.t list * Absint.stats list
(** Diagnostics plus the solver statistics of every thread fixpoint. *)
