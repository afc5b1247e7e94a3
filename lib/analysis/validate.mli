(** Soundness cross-validation: the static analyzer against the dynamic
    checkers, which are its oracle.

    Per analyzed program ({!program}), three checks:

    + static DRF (worst of lockset and ownership) vs {!Vrm.Check_drf}:
      [Pass] ⇒ holds, [Fail] ⇒ ¬holds, [Unknown] ⇒ the dynamic outcome
      matches the expectation when one is given, and is not binding
      otherwise;
    + static barriers vs {!Vrm.Check_barrier}, same contract;
    + when {!Replay.relevant}, per-code agreement for W003/W004/W005
      against the trace-replay referee: static [Fail] ⇒ a replay finding
      with that code exists, static [Pass] ⇒ none.

    Per corpus entry ({!entry}), two more:

    + static refinement vs {!Vrm.Refinement} — [Pass] ⇒ holds (it is
      never [Fail]);
    + the entry's [Definite] code set equals the pinned expectation from
      {!Sekvm.Kernel_progs.lint_expectations} (a missing table entry is
      itself a failure).

    Any disagreement fails the suite: either the analyzer claimed too
    much (unsound) or a seeded bug went unreported (incomplete). The
    test suite also runs {!program} on random DSL programs. *)

type check = { c_name : string; c_ok : bool; c_detail : string }

type report = {
  r_entry : string;  (** corpus entry name *)
  r_checks : check list;
}

val ok : report -> bool

val program :
  ?expect:Sekvm.Kernel_progs.expect ->
  exempt:string list ->
  initial_owners:(string * int) list ->
  Driver.t ->
  Memmodel.Prog.t ->
  check list
(** The DRF, barrier and replay checks of one program against its
    analysis. Without [expect], an [Unknown] verdict is not binding. *)

val entry : Sekvm.Kernel_progs.entry -> report
val corpus : unit -> report list

val all_ok : report list -> bool
val pp_report : Format.formatter -> report -> unit
