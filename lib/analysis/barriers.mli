(** W002/W007 — barrier-placement lint.

    W002 decides {!Vrm.Check_barrier}'s acquire/release adequacy rules
    as a dataflow problem, and reports structured diagnostics with
    positions and fixes: the backward adequacy scans become a must-flag
    plus a may-dirty-set lattice, and the forward scans become pending
    obligations, resolved by the fulfilling barrier or reported at the
    first annotated-base access or at thread exit. A W002 finding is
    [Definite] even when confined to one control-flow path, because the
    dynamic referee for this condition is itself path-based: a
    statically unfulfilled pull/push on some path is precisely a
    [Check_barrier] violation on that path. Consequently

    - W002 absent  ⟺  [Check_barrier.check] holds,

    which the cross-validation harness asserts in both directions.

    W007 is advisory and always [Possible]: a load from a page-table base
    taints its destination register; a branch on a tainted register whose
    body performs further loads, with no [ISB] since the tainted load,
    is flagged (the control dependency alone does not order the later
    loads on Arm). *)

open Memmodel

val run : Prog.t -> Diag.t list * Absint.stats list
(** Diagnostics plus the solver statistics of every thread fixpoint
    (W007 is a linear structural scan and adds none). *)
