(** Checker for wDRF condition 5, Sequential-TLB-Invalidation (paper §5.5).

    Judged over the recorded execution trace: every page-table write that
    unmaps or remaps a valid entry (of a stage-2 or SMMU table — the EL2
    table never needs invalidation thanks to Write-Once) must be followed,
    before its critical section ends, by a DSB barrier and then a TLB
    invalidation whose scope covers the table. Writes filling previously
    empty entries need no invalidation ([set_s2pt] operates on empty
    entries only). *)

open Sekvm
open Machine

type violation = {
  v_cpu : int;
  v_table : Trace.table_id;
  v_write : Page_table.pt_write;
  v_reason : [ `No_barrier | `No_tlbi ];
}

type verdict = {
  holds : bool;
  unmaps_checked : int;
  violations : violation list;
}

let scope_covers (table : Trace.table_id) (scope : Trace.tlbi_scope) =
  match (table, scope) with
  | _, Trace.Tlbi_all -> true
  | Trace.T_stage2 v, Trace.Tlbi_vmid v' -> v = v'
  | Trace.T_stage2 v, Trace.Tlbi_va (v', _) -> v = v'
  | Trace.T_smmu d, Trace.Tlbi_smmu_dev d' -> d = d'
  | _ -> false

(** Does the event suffix contain, for [cpu], a DSB and then a covering
    TLBI before the end of the recording? *)
let followed_by_dsb_tlbi ~cpu ~table suffix =
  let rec find_dsb = function
    | [] -> Error `No_barrier
    | Trace.E_dsb c :: rest when c = cpu -> find_tlbi rest
    | _ :: rest -> find_dsb rest
  and find_tlbi = function
    | [] -> Error `No_tlbi
    | Trace.E_tlbi { cpu = c; scope } :: _
      when c = cpu && scope_covers table scope ->
        Ok ()
    | _ :: rest -> find_tlbi rest
  in
  find_dsb suffix

let is_unmap_or_remap (w : Page_table.pt_write) =
  Pte.is_valid w.Page_table.w_old
  && (w.Page_table.w_new <> w.Page_table.w_old)

let check (trace : Trace.t) : verdict =
  let violations = ref [] in
  let checked = ref 0 in
  let rec go = function
    | [] -> ()
    | Trace.E_pt_write { cpu; table; write; _ } :: rest
      when table <> Trace.T_el2 && is_unmap_or_remap write ->
        incr checked;
        (match followed_by_dsb_tlbi ~cpu ~table rest with
        | Ok () -> ()
        | Error reason ->
            violations :=
              { v_cpu = cpu; v_table = table; v_write = write;
                v_reason = reason }
              :: !violations);
        go rest
    | _ :: rest -> go rest
  in
  go (Trace.events trace);
  { holds = !violations = [];
    unmaps_checked = !checked;
    violations = List.rev !violations }

let pp_violation fmt x =
  (* the table as one string: [Trace.pp_table_id]'s box could break it *)
  Format.fprintf fmt "cpu %d, table %s, frame %d index %d: %s" x.v_cpu
    (Trace.show_table_id x.v_table) x.v_write.Page_table.w_pfn
    x.v_write.Page_table.w_idx
    (match x.v_reason with
    | `No_barrier -> "missing barrier"
    | `No_tlbi -> "missing TLBI")

let pp_verdict fmt v =
  if v.holds then
    Format.fprintf fmt
      "Sequential-TLB-Invalidation: HOLDS (%d unmap/remap writes, each \
       followed by DSB + TLBI)"
      v.unmaps_checked
  else
    Format.fprintf fmt
      "Sequential-TLB-Invalidation: VIOLATED (%d unguarded unmaps: %a)"
      (List.length v.violations)
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
         pp_violation)
      v.violations
