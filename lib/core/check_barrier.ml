(** Checker for wDRF condition 2, No-Barrier-Misuse (paper §4.1, Fig. 5).

    In the push/pull Promising model, a pull promise must be fulfilled by a
    load barrier (acquire access, DMB LD or DMB full) and a push promise by
    a store barrier (release access, DMB ST or DMB full), consistently with
    program order. Syntactically, on every control-flow path:

    - backward from each [Pull], the nearest ordering-relevant instruction
      must be acquire-flavored (an acquire load/RMW or a load/full DMB)
      before any memory access intervenes that the pull is meant to
      protect;
    - forward from each [Push], the nearest ordering-relevant instruction
      must be release-flavored.

    Accesses to bases outside the pulled/pushed footprint may sit between
    the barrier and the annotation (e.g. Example 3 sets the ACTIVE flag
    between the acquire load and the pull); accesses {e inside} the
    footprint there would be unsynchronized and are rejected. *)

open Memmodel

type violation = {
  v_tid : int;
  v_kind : [ `Pull_unfulfilled | `Push_unfulfilled ];
  v_bases : string list;
}

let pp_violation fmt v =
  Format.fprintf fmt
    "CPU %d: %s of {%s} not fulfilled by a %s barrier on some path" v.v_tid
    (match v.v_kind with
    | `Pull_unfulfilled -> "pull"
    | `Push_unfulfilled -> "push")
    (String.concat ", " v.v_bases)
    (match v.v_kind with
    | `Pull_unfulfilled -> "load"
    | `Push_unfulfilled -> "store")

type verdict = { holds : bool; violations : violation list }

let cross heads tails =
  List.concat_map (fun h -> List.map (fun t -> h @ t) tails) heads

(* Enumerate control-flow paths, unrolling loops zero, one and two
   times. Two iterations suffice: a scan that crosses the back edge sees
   the previous iteration's body, and a third iteration shows it nothing
   new. *)
let rec paths (code : Instr.t list) : Instr.t list list =
  match code with
  | [] -> [ [] ]
  | Instr.If (_, a, b) :: rest -> cross (paths a @ paths b) (paths rest)
  | Instr.While (_, body) :: rest ->
      let once = paths body in
      cross (([] :: once) @ cross once once) (paths rest)
  | i :: rest -> List.map (fun t -> i :: t) (paths rest)

let is_acquireish = function
  | Instr.Load (_, _, (Instr.Acquire | Instr.Acq_rel))
  | Instr.Faa (_, _, _, (Instr.Acquire | Instr.Acq_rel))
  | Instr.Xchg (_, _, _, (Instr.Acquire | Instr.Acq_rel))
  | Instr.Cas (_, _, _, _, (Instr.Acquire | Instr.Acq_rel))
  | Instr.Barrier (Instr.Dmb_full | Instr.Dmb_ld) ->
      true
  | _ -> false

let is_releaseish = function
  | Instr.Store (_, _, (Instr.Release | Instr.Acq_rel))
  | Instr.Faa (_, _, _, (Instr.Release | Instr.Acq_rel))
  | Instr.Xchg (_, _, _, (Instr.Release | Instr.Acq_rel))
  | Instr.Cas (_, _, _, _, (Instr.Release | Instr.Acq_rel))
  | Instr.Barrier (Instr.Dmb_full | Instr.Dmb_st) ->
      true
  | _ -> false

let touches bases = function
  | Instr.Load (_, a, _) | Instr.Store (a, _, _) | Instr.Faa (_, a, _, _)
  | Instr.Xchg (_, a, _, _) | Instr.Cas (_, a, _, _, _) ->
      List.mem a.Expr.abase bases
  | _ -> false

(* Scan a direction until an instruction satisfying [pred] appears, giving
   up at the first access to the protected footprint. *)
let scan_until pred bases instrs =
  let rec go = function
    | [] -> false
    | i :: rest ->
        if pred i then true
        else if touches bases i then false
        else go rest
  in
  go instrs

let is_dmb_ld = function
  | Instr.Barrier (Instr.Dmb_full | Instr.Dmb_ld) -> true
  | _ -> false

let is_dmb_st = function
  | Instr.Barrier (Instr.Dmb_full | Instr.Dmb_st) -> true
  | _ -> false

(* A pull promise is fulfilled by an acquire access/load barrier before it
   in program order, or by a standalone DMB between the pull and the first
   protected access. [before] is most-recent-first. *)
let pull_fulfilled before after bases =
  scan_until is_acquireish bases before
  || scan_until is_dmb_ld bases after

(* Dually for push: a release access/store barrier after it, or a DMB
   between the last protected access and the push. *)
let push_fulfilled before after bases =
  scan_until is_releaseish bases after
  || scan_until is_dmb_st bases before

let check_thread (th : Prog.thread) : violation list =
  let bad = ref [] in
  List.iter
    (fun path ->
      let rec walk before = function
        | [] -> ()
        | (Instr.Pull bases as i) :: rest ->
            if not (pull_fulfilled before rest bases) then
              bad :=
                { v_tid = th.Prog.tid; v_kind = `Pull_unfulfilled;
                  v_bases = bases }
                :: !bad;
            walk (i :: before) rest
        | (Instr.Push bases as i) :: rest ->
            if not (push_fulfilled before rest bases) then
              bad :=
                { v_tid = th.Prog.tid; v_kind = `Push_unfulfilled;
                  v_bases = bases }
                :: !bad;
            walk (i :: before) rest
        | i :: rest -> walk (i :: before) rest
      in
      walk [] path)
    (paths th.Prog.code);
  List.sort_uniq compare !bad

let check (prog : Prog.t) : verdict =
  let violations = List.concat_map check_thread prog.Prog.threads in
  { holds = violations = []; violations }

let pp_verdict fmt v =
  if v.holds then Format.fprintf fmt "No-Barrier-Misuse: HOLDS"
  else
    Format.fprintf fmt "No-Barrier-Misuse: VIOLATED@,%a"
      (Format.pp_print_list pp_violation)
      v.violations
