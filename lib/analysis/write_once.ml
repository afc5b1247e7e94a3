open Memmodel

(* Bases matching [pred] that [th] writes anywhere (structurally). *)
let written_bases pred (th : Prog.thread) =
  let rec go acc = function
    | [] -> acc
    | ins :: rest ->
        let acc =
          match ins with
          | Instr.If (_, a, b) -> go (go acc a) b
          | Instr.While (_, body) -> go acc body
          | _ -> (
              match Cfg.access_base ins with
              | Some b when Cfg.writes_mem ins && pred b -> b :: acc
              | _ -> acc)
        in
        go acc rest
  in
  List.sort_uniq compare (go [] th.Prog.code)

(* EL2 bases written by two or more threads: per-thread constant tracking
   is unsound there, so the whole base degrades to [Possible]. *)
let multi_writer_bases pred (prog : Prog.t) =
  let per_thread = List.map (written_bases pred) prog.Prog.threads in
  List.sort_uniq compare (List.concat per_thread)
  |> List.filter (fun b ->
         List.length (List.filter (fun ws -> List.mem b ws) per_thread) >= 2)

let guard_diag b =
  { Diag.d_code = Diag.W003;
    d_tid = 0;
    d_path = [];
    d_certainty = Diag.Possible;
    d_message =
      Printf.sprintf
        "kernel mapping base '%s' is written by multiple threads; \
         write-once cannot be decided per thread"
        b;
    d_fix =
      "route all mapping installs for the base through one CPU, or rely \
       on the dynamic checker" }

(* Pull/push nesting depth becomes an interval [dmin, dmax]; a loop
   that pulls without pushing widens dmax to "unbounded". A store is
   silent when dmin > 0 (inside a section on every path), Definite when
   the must-prior value is a known nonzero, dmax = 0 and the store is
   definitely reached — i.e. every run overwrites. *)
let inf_depth = max_int asr 1

let run (prog : Prog.t) : Diag.t list * Absint.stats list =
  let multi = multi_writer_bases Cfg.is_el2_base prog in
  let guard_diags = List.map guard_diag multi in
  let default = Cfg.Amem.init ~pred:Cfg.is_el2_base prog in
  let stats = ref [] in
  let thread_diags =
    List.concat_map
      (fun (th : Prog.thread) ->
        let module D = struct
          type t = Bot | S of Absint.Mem.t * int * int

          let bottom = Bot

          let join a b =
            match (a, b) with
            | Bot, x | x, Bot -> x
            | S (m1, lo1, hi1), S (m2, lo2, hi2) ->
                S (Absint.Mem.join m1 m2, min lo1 lo2, max hi1 hi2)

          let leq a b =
            match (a, b) with
            | Bot, _ -> true
            | S _, Bot -> false
            | S (m1, lo1, hi1), S (m2, lo2, hi2) ->
                Absint.Mem.leq m1 m2 && lo2 <= lo1 && hi1 <= hi2

          let transfer lbl t =
            match (t, lbl) with
            | Bot, _ | _, (Cfg.L_skip | Cfg.L_guard _) -> t
            | S (m, lo, hi), Cfg.L_ins s -> (
                match s.Cfg.ins with
                | Instr.Pull _ -> S (m, lo + 1, min inf_depth (hi + 1))
                | Instr.Push _ -> S (m, max 0 (lo - 1), max 0 (hi - 1))
                | Instr.Store (a, v, _) when Cfg.is_el2_base a.Expr.abase -> (
                    let base = a.Expr.abase in
                    match Cfg.const_of_vexp a.Expr.offset with
                    | None -> S (Absint.Mem.smudge m base, lo, hi)
                    | Some off ->
                        let av =
                          match Cfg.const_of_vexp v with
                          | Some n -> Cfg.Amem.Known n
                          | None -> Cfg.Amem.Unknown_val
                        in
                        S (Absint.Mem.write m (base, off) av, lo, hi))
                | ins
                  when Cfg.is_rmw ins
                       && (match Cfg.access_base ins with
                          | Some b -> Cfg.is_el2_base b
                          | None -> false) ->
                    S (Absint.Mem.smudge m (Option.get (Cfg.access_base ins)), lo, hi)
                | _ -> t)

          let widen a b =
            match (a, b) with
            | Bot, x | x, Bot -> x
            | S (m1, lo1, hi1), S (m2, lo2, hi2) ->
                S
                  ( Absint.Mem.join m1 m2,
                    min lo1 lo2,
                    if hi2 > hi1 then inf_depth else hi1 )
        end in
        let g = Cfg.graph th.Prog.code in
        let fl = Absint.flow g in
        let module Sv = Absint.Solve (D) in
        let init = D.S (Absint.Mem.init ~default ~smudged:multi, 0, 0) in
        let states, st = Sv.run ~live:fl.Absint.f_live g ~init in
        stats := Absint.add_stats fl.Absint.f_stats st :: !stats;
        let raws = ref [] in
        let emit r = raws := r :: !raws in
        Array.iteri
          (fun n succ ->
            match states.(n) with
            | D.Bot -> ()
            | D.S (m, lo, hi) ->
                List.iter
                  (fun (lbl, _) ->
                    match lbl with
                    | Cfg.L_ins s -> (
                        match s.Cfg.ins with
                        | Instr.Store (a, _, _)
                          when Cfg.is_el2_base a.Expr.abase -> (
                            let base = a.Expr.abase in
                            match Cfg.const_of_vexp a.Expr.offset with
                            | None ->
                                emit
                                  { Cfg.r_code = Diag.W003;
                                    r_path = s.Cfg.pt;
                                    r_message =
                                      Printf.sprintf
                                        "store to '%s' at a non-constant \
                                         offset; write-once cannot be \
                                         checked statically"
                                        base;
                                    r_fix =
                                      "use a constant index for \
                                       kernel-mapping installs, or rely on \
                                       the dynamic checker";
                                    r_definite = false }
                            | Some off -> (
                                if lo = 0 then
                                  match Absint.Mem.read m (base, off) with
                                  | Cfg.Amem.Known 0 -> ()
                                  | Cfg.Amem.Known _ ->
                                      emit
                                        { Cfg.r_code = Diag.W003;
                                          r_path = s.Cfg.pt;
                                          r_message =
                                            Printf.sprintf
                                              "kernel mapping %s[%d] \
                                               overwritten outside a \
                                               transactional section"
                                              base off;
                                          r_fix =
                                            "install each kernel mapping \
                                             exactly once, or wrap the \
                                             remap in a pull/push section";
                                          r_definite =
                                            hi = 0 && fl.Absint.f_dr n }
                                  | Cfg.Amem.Unknown_val ->
                                      emit
                                        { Cfg.r_code = Diag.W003;
                                          r_path = s.Cfg.pt;
                                          r_message =
                                            Printf.sprintf
                                              "store to %s[%d] may \
                                               overwrite an existing kernel \
                                               mapping"
                                              base off;
                                          r_fix =
                                            "install each kernel mapping \
                                             exactly once, or rely on the \
                                             dynamic checker";
                                          r_definite = false }))
                        | ins
                          when Cfg.is_rmw ins
                               && (match Cfg.access_base ins with
                                  | Some b -> Cfg.is_el2_base b
                                  | None -> false) ->
                            emit
                              { Cfg.r_code = Diag.W003;
                                r_path = s.Cfg.pt;
                                r_message =
                                  Printf.sprintf
                                    "atomic update of kernel-mapping base \
                                     '%s'; write-once cannot be checked \
                                     statically"
                                    (Option.get (Cfg.access_base ins));
                                r_fix =
                                  "install kernel mappings with plain \
                                   stores checked statically, or rely on \
                                   the dynamic checker";
                                r_definite = false }
                        | _ -> ())
                    | _ -> ())
                  succ)
          g.Cfg.g_succ;
        Cfg.merge_raws ~tid:th.Prog.tid !raws)
      prog.Prog.threads
  in
  (Diag.sort (guard_diags @ thread_diags), !stats)
