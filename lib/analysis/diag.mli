(** Structured diagnostics of the static wDRF analyzer.

    Every lint pass reports findings through this one type so the driver,
    the CLI and the golden-file tests share a single renderer. Warning
    codes are {e stable}: they are part of the tool's interface (the
    cross-validation harness keys its expectations on them), so codes are
    never renumbered — retired codes are left unused.

    A diagnostic carries a {!certainty}:

    - [Definite] — the defect occurs on {e every} control-flow path
      through a definitely-reached point of its thread (or is
      path-insensitive), so some dynamic
      execution is guaranteed to exhibit it. [Definite] findings drive a
      [Fail] verdict and the soundness harness demands a dynamic witness
      for each.
    - [Possible] — the pass saw something it cannot prove either way
      (a finding confined to one branch, a protocol it cannot decode, a
      non-constant address). [Possible] findings drive an [Unknown]
      verdict, which the service answers by falling back to exhaustive
      exploration. *)

type code =
  | W001  (** access to a tracked shared base outside any ownership *)
  | W002  (** pull/push not fulfilled by an adequate barrier *)
  | W003  (** kernel (EL2) mapping written more than once *)
  | W004  (** malformed transactional page-table section *)
  | W005  (** page-table write without a covering DMB+TLBI *)
  | W006  (** push/pull ownership flow (double pull, push of free, leak) *)
  | W007  (** advisory: control-dependent PT read without an ISB *)
  | W008  (** advisory: program-order pair on an unfenced critical cycle *)

val code_name : code -> string
(** ["W001"] .. ["W008"]. *)

val code_title : code -> string
(** One-line description of the warning family. *)

val code_of_name : string -> code option

type certainty = Definite | Possible

type t = {
  d_code : code;
  d_tid : int;  (** reporting thread; 0 for whole-program findings *)
  d_path : int list;
      (** structural instruction path within the thread (root to leaf);
          [[]] for whole-program findings *)
  d_certainty : certainty;
  d_message : string;
  d_fix : string;  (** suggested fix, always present *)
}

val compare : t -> t -> int
(** Orders by thread id, then instruction path, then code, then message —
    the deterministic order every renderer uses. *)

val sort : t list -> t list
(** Sort by {!compare} and drop exact duplicates. *)

type verdict = Pass | Fail | Unknown

val verdict_name : verdict -> string
val verdict_of_diags : t list -> verdict
(** [Fail] if any finding is [Definite], else [Unknown] if any is
    [Possible], else [Pass]. *)

val worst : verdict -> verdict -> verdict
(** [Fail] dominates [Unknown] dominates [Pass]. *)

val pp_path : Format.formatter -> int list -> unit
val pp : Format.formatter -> t -> unit
val to_json : t -> Cache.Json.t
