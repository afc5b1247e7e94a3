(** Dynamic referee for the page-table conditions (W003/W004/W005).

    The static write-once, transactional-section and TLBI passes reason
    about abstract values over the thread CFG; this module re-checks the
    same three conditions concretely by replaying the SC interleaving
    event traces of {!Memmodel.Pushpull.traces} against real memory. The
    cross-validation harness then demands per-code agreement: a static
    [Fail] for W003/W004/W005 must be witnessed by a replay finding with
    the same code, and a static [Pass] must replay clean. *)

open Memmodel

type finding = { f_tid : int; f_code : Diag.code; f_message : string }

val pp_finding : Format.formatter -> finding -> unit

(** Is the replay referee applicable — does the program touch any
    page-table ([pte*], [pt_*]) or kernel-mapping ([el2*]) base? *)
val relevant : Prog.t -> bool

val check :
  ?fuel:int ->
  ?max_traces:int ->
  ?exempt:string list ->
  ?initial_owners:(string * int) list ->
  Prog.t ->
  finding list
(** Deduplicated findings over all enumerated traces, sorted. *)
