(** W006 — push/pull ownership dataflow.

    Tracks the ghost-ownership protocol per thread over its CFG:
    ownership is a must-set plus a may-map from base to the set of
    acquiring points. Pulling a base already owned, pushing a base not
    owned, and leaking (a pulled base still owned when the thread exits)
    are findings.

    Double-pull and unowned-push are [Definite] at the must level on a
    definitely-reached point (the DRF checker then flags them on every
    interleaving). A leak is [Definite] only with a unique acquiring
    point and if some other thread pulls the same base unconditionally —
    that pull is then guaranteed to collide with the leaked ownership
    dynamically; otherwise it is [Possible]. *)

open Memmodel

val run :
  exempt:string list ->
  initial_owners:(string * int) list ->
  Prog.t ->
  Diag.t list * Absint.stats list
(** Diagnostics plus the solver statistics of every thread fixpoint. *)
