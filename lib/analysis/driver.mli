(** Composition of the wDRF lint passes into one static certificate.

    Verdict semantics per pass: [Fail] iff some diagnostic is [Definite]
    (a dynamic witness is guaranteed), [Unknown] iff only [Possible]
    diagnostics remain, [Pass] iff none.

    Each per-thread pass is an abstract-interpretation dataflow problem
    over the thread CFG ({!Absint}): linear-ish in program size, sound
    on loops via widening, and [Definite] only at definitely-reached
    program points. The delay pass (W008, {!Delay}) is a structural
    scan. The dynamic checkers are the oracle: {!Validate} checks every
    verdict against them, on the corpus and on random programs.

    [a_refinement] is the static counterpart of Theorem 2 — [Pass] only
    when the lockset, ownership and barrier passes all pass {e and} every
    exempt base touched by more than one thread is recognizably a lock
    internal; it is never [Fail] (the analyzer cannot statically exhibit
    a non-SC behavior), degrading to [Unknown] instead. The service only
    skips exploration when both [a_overall] and [a_refinement] are
    [Pass]. *)

open Memmodel

(** Analyzer version, folded into service cache keys so a lint upgrade
    invalidates statically served results. *)
val version : string

type pass = {
  p_name : string;
  p_verdict : Diag.verdict;
  p_diags : Diag.t list;
  p_ms : float;  (** wall time of the pass, milliseconds *)
  p_stats : Absint.stats;
      (** summed over the thread CFGs; zero for structural passes *)
}

type t = {
  a_name : string;
  a_prog_digest : string;  (** {!Memmodel.Fingerprint.prog} *)
  a_passes : pass list;
  a_overall : Diag.verdict;
  a_refinement : Diag.verdict;
}

val analyze_prog :
  ?exempt:string list ->
  ?initial_owners:(string * int) list ->
  name:string ->
  Prog.t ->
  t

val analyze : Sekvm.Kernel_progs.entry -> t

val diags : t -> Diag.t list
(** All diagnostics, in the deterministic {!Diag.compare} order. *)

val definite_codes : t -> string list
(** Sorted, deduplicated code names of the [Definite] diagnostics — what
    the corpus expectation table pins down per entry. *)

val pass_verdict : t -> string -> Diag.verdict
(** Verdict of the named pass ([Pass] if the name is unknown). *)

val code_verdict : t -> Diag.code -> Diag.verdict
(** Verdict restricted to one warning code across all passes. *)

val to_json : t -> Cache.Json.t
val pp : Format.formatter -> t -> unit

val pp_stats : Format.formatter -> t -> unit
(** Per-pass wall time and solver statistics ([vrm-cli lint --stats]). *)

val to_program_summary :
  expect:Sekvm.Kernel_progs.expect -> t -> Vrm.Certificate.program_summary option
(** The cacheable summary a static [Pass] stands in for — [None] when any
    of the DRF / barrier / refinement verdicts is [Unknown] (the service
    must fall back to exploration). *)
