(** Checker for wDRF condition 2, No-Barrier-Misuse (paper Fig. 5): on
    every control-flow path, each pull must be fulfilled by an
    acquire-flavored access or load/full DMB, and each push by a
    release-flavored access or store/full DMB, before any access to the
    protected footprint intervenes. *)

open Memmodel

type violation = {
  v_tid : int;
  v_kind : [ `Pull_unfulfilled | `Push_unfulfilled ];
  v_bases : string list;
}

val pp_violation : Format.formatter -> violation -> unit

type verdict = { holds : bool; violations : violation list }

val paths : Instr.t list -> Instr.t list list
(** Control-flow paths, unrolling loops zero, one and two times. *)

val check : Prog.t -> verdict
val pp_verdict : Format.formatter -> verdict -> unit
