open Memmodel

let covers base = function
  | Instr.Tlbi None -> true
  | Instr.Tlbi (Some a) -> a.Expr.abase = base
  | _ -> false

let is_dmb_st = function
  | Instr.Barrier (Instr.Dmb_full | Instr.Dmb_st) -> true
  | _ -> false

let guard_diag b =
  { Diag.d_code = Diag.W005;
    d_tid = 0;
    d_path = [];
    d_certainty = Diag.Possible;
    d_message =
      Printf.sprintf
        "stage-2 page-table base '%s' is written by multiple threads; \
         TLB invalidation cannot be decided per thread"
        b;
    d_fix =
      "serialize page-table updates for the base on one CPU, or rely on \
       the dynamic checker" }

(* A live-entry store opens a pending obligation; the flags record what
   must be true of every path carrying it. [ob_must] is seeded with the
   definite-reachedness of the store and drops when a joining path does
   not carry the obligation: the every-path promotion rule without
   enumerating paths. *)
type ob = {
  ob_def : bool;  (** prior value was a known non-zero on every path *)
  ob_must : bool;  (** obligation is live on every path *)
  ob_dmb_must : bool;  (** a DMB(ST) intervened on every path *)
  ob_dmb_may : bool;  (** a DMB(ST) intervened on some path *)
}

module ObMap = Map.Make (struct
  type t = int list * string * int (* store point, base, offset *)

  let compare = Stdlib.compare
end)

module CovSet = Set.Make (struct
  type t = string option (* TLBI operand base; None = covers everything *)

  let compare = Stdlib.compare
end)

let cov_covers base cov = CovSet.mem None cov || CovSet.mem (Some base) cov

let msg_no_dmb base off =
  Printf.sprintf "TLBI after the write to %s[%d] is not ordered by a DMB"
    base off

let fix_no_dmb = "insert `dmb st` between the page-table write and the TLBI"

let msg_tlbi_before base off =
  Printf.sprintf
    "TLBI precedes the write to %s[%d]; stale translations survive the \
     remap"
    base off

let fix_tlbi_before =
  "move the TLBI after the page-table write, ordered by `dmb st`"

let msg_no_tlbi base off =
  Printf.sprintf "%s[%d] remapped with no TLBI on this path" base off

let fix_no_tlbi = "after the write: `dmb st; tlbi` for the entry"

let run (prog : Prog.t) : Diag.t list * Absint.stats list =
  let multi = Write_once.multi_writer_bases Cfg.is_s2_pt_base prog in
  let guard_diags = List.map guard_diag multi in
  let default = Cfg.Amem.init ~pred:Cfg.is_s2_pt_base prog in
  let stats = ref [] in
  let thread_diags =
    List.concat_map
      (fun (th : Prog.thread) ->
        let g = Cfg.graph th.Prog.code in
        let fl = Absint.flow g in
        (* definite-reachedness per structural store point: peeled loop
           copies share a point, so a point is must-reached only if
           every reachable copy is. *)
        let pt_dr = Hashtbl.create 16 in
        Array.iteri
          (fun n succ ->
            if fl.Absint.f_reachable n then
              List.iter
                (fun (lbl, _) ->
                  match lbl with
                  | Cfg.L_ins s ->
                      let cur =
                        try Hashtbl.find pt_dr s.Cfg.pt with Not_found -> true
                      in
                      Hashtbl.replace pt_dr s.Cfg.pt (cur && fl.Absint.f_dr n)
                  | _ -> ())
                succ)
          g.Cfg.g_succ;
        let dr_of_pt pt = try Hashtbl.find pt_dr pt with Not_found -> false in
        let module D = struct
          type state = {
            mem : Absint.Mem.t;
            pend : ob ObMap.t;
            cov_must : CovSet.t;
            cov_may : CovSet.t;
          }

          type t = Bot | S of state

          let bottom = Bot

          let ob_join a b =
            { ob_def = a.ob_def && b.ob_def;
              ob_must = a.ob_must && b.ob_must;
              ob_dmb_must = a.ob_dmb_must && b.ob_dmb_must;
              ob_dmb_may = a.ob_dmb_may || b.ob_dmb_may }

          let join a b =
            match (a, b) with
            | Bot, x | x, Bot -> x
            | S a, S b ->
                S
                  { mem = Absint.Mem.join a.mem b.mem;
                    pend =
                      ObMap.merge
                        (fun _ oa obo ->
                          match (oa, obo) with
                          | Some x, Some y -> Some (ob_join x y)
                          | Some x, None | None, Some x ->
                              Some { x with ob_must = false }
                          | None, None -> None)
                        a.pend b.pend;
                    cov_must = CovSet.inter a.cov_must b.cov_must;
                    cov_may = CovSet.union a.cov_may b.cov_may }

          let ob_leq a b =
            b.ob_def <= a.ob_def
            && b.ob_must <= a.ob_must
            && b.ob_dmb_must <= a.ob_dmb_must
            && a.ob_dmb_may <= b.ob_dmb_may

          let leq a b =
            match (a, b) with
            | Bot, _ -> true
            | S _, Bot -> false
            | S a, S b ->
                Absint.Mem.leq a.mem b.mem
                && ObMap.for_all
                     (fun k oa ->
                       match ObMap.find_opt k b.pend with
                       | Some ob -> ob_leq oa ob
                       | None -> false)
                     a.pend
                && CovSet.subset b.cov_must a.cov_must
                && CovSet.subset a.cov_may b.cov_may

          let transfer lbl t =
            match (t, lbl) with
            | Bot, _ | _, (Cfg.L_skip | Cfg.L_guard _) -> t
            | S s, Cfg.L_ins step -> (
                let ins = step.Cfg.ins in
                match ins with
                | _ when is_dmb_st ins ->
                    S
                      { s with
                        pend =
                          ObMap.map
                            (fun o ->
                              { o with ob_dmb_must = true; ob_dmb_may = true })
                            s.pend }
                | Instr.Tlbi operand ->
                    let key =
                      match operand with
                      | None -> None
                      | Some a -> Some a.Expr.abase
                    in
                    S
                      { s with
                        pend =
                          ObMap.filter
                            (fun (_, base, _) _ -> not (covers base ins))
                            s.pend;
                        cov_must = CovSet.add key s.cov_must;
                        cov_may = CovSet.add key s.cov_may }
                | Instr.Store (a, v, _) when Cfg.is_s2_pt_base a.Expr.abase
                  -> (
                    let base = a.Expr.abase in
                    match Cfg.const_of_vexp a.Expr.offset with
                    | None -> S { s with mem = Absint.Mem.smudge s.mem base }
                    | Some off ->
                        let prior = Absint.Mem.read s.mem (base, off) in
                        let pend =
                          match prior with
                          | Cfg.Amem.Known 0 -> s.pend
                          | _ ->
                              let definite =
                                match prior with
                                | Cfg.Amem.Known _ -> true
                                | Cfg.Amem.Unknown_val -> false
                              in
                              ObMap.add
                                (step.Cfg.pt, base, off)
                                { ob_def = definite;
                                  ob_must = definite && dr_of_pt step.Cfg.pt;
                                  ob_dmb_must = false;
                                  ob_dmb_may = false }
                                s.pend
                        in
                        let av =
                          match Cfg.const_of_vexp v with
                          | Some n -> Cfg.Amem.Known n
                          | None -> Cfg.Amem.Unknown_val
                        in
                        S
                          { s with
                            pend;
                            mem = Absint.Mem.write s.mem (base, off) av })
                | ins
                  when Cfg.is_rmw ins
                       && (match Cfg.access_base ins with
                          | Some b -> Cfg.is_s2_pt_base b
                          | None -> false) ->
                    S
                      { s with
                        mem =
                          Absint.Mem.smudge s.mem
                            (Option.get (Cfg.access_base ins)) }
                | _ -> t)

          let widen = join
        end in
        let module Sv = Absint.Solve (D) in
        let init =
          D.S
            { mem = Absint.Mem.init ~default ~smudged:multi;
              pend = ObMap.empty;
              cov_must = CovSet.empty;
              cov_may = CovSet.empty }
        in
        let states, st = Sv.run ~live:fl.Absint.f_live g ~init in
        stats := Absint.add_stats fl.Absint.f_stats st :: !stats;
        let raws = ref [] in
        let emit r = raws := r :: !raws in
        Array.iteri
          (fun n succ ->
            match states.(n) with
            | D.Bot -> ()
            | D.S s ->
                List.iter
                  (fun (lbl, _) ->
                    match lbl with
                    | Cfg.L_ins step -> (
                        match step.Cfg.ins with
                        | Instr.Tlbi _ ->
                            ObMap.iter
                              (fun (pt, base, off) o ->
                                if covers base step.Cfg.ins && not o.ob_dmb_must
                                then
                                  emit
                                    { Cfg.r_code = Diag.W005;
                                      r_path = pt;
                                      r_message = msg_no_dmb base off;
                                      r_fix = fix_no_dmb;
                                      r_definite =
                                        o.ob_def && o.ob_must
                                        && (not o.ob_dmb_may)
                                        && fl.Absint.f_dr n })
                              s.D.pend
                        | Instr.Store (a, _, _)
                          when Cfg.is_s2_pt_base a.Expr.abase -> (
                            let base = a.Expr.abase in
                            match Cfg.const_of_vexp a.Expr.offset with
                            | None ->
                                emit
                                  { Cfg.r_code = Diag.W005;
                                    r_path = step.Cfg.pt;
                                    r_message =
                                      Printf.sprintf
                                        "store to '%s' at a non-constant \
                                         offset; TLB invalidation cannot be \
                                         checked statically"
                                        base;
                                    r_fix =
                                      "use a constant index for page-table \
                                       updates, or rely on the dynamic \
                                       checker";
                                    r_definite = false }
                            | Some _ -> ())
                        | ins
                          when Cfg.is_rmw ins
                               && (match Cfg.access_base ins with
                                  | Some b -> Cfg.is_s2_pt_base b
                                  | None -> false) ->
                            emit
                              { Cfg.r_code = Diag.W005;
                                r_path = step.Cfg.pt;
                                r_message =
                                  Printf.sprintf
                                    "atomic update of page-table base '%s'; \
                                     TLB invalidation cannot be checked \
                                     statically"
                                    (Option.get (Cfg.access_base ins));
                                r_fix =
                                  "update page-table entries with plain \
                                   stores checked statically, or rely on \
                                   the dynamic checker";
                                r_definite = false }
                        | _ -> ())
                    | _ -> ())
                  succ)
          g.Cfg.g_succ;
        (match states.(g.Cfg.g_exit) with
        | D.Bot -> ()
        | D.S s ->
            ObMap.iter
              (fun (pt, base, off) o ->
                if cov_covers base s.D.cov_may then
                  emit
                    { Cfg.r_code = Diag.W005;
                      r_path = pt;
                      r_message = msg_tlbi_before base off;
                      r_fix = fix_tlbi_before;
                      r_definite =
                        o.ob_def && o.ob_must && cov_covers base s.D.cov_must }
                else
                  emit
                    { Cfg.r_code = Diag.W005;
                      r_path = pt;
                      r_message = msg_no_tlbi base off;
                      r_fix = fix_no_tlbi;
                      r_definite = o.ob_def && o.ob_must })
              s.D.pend);
        Cfg.merge_raws ~tid:th.Prog.tid !raws)
      prog.Prog.threads
  in
  (Diag.sort (guard_diags @ thread_diags), !stats)
