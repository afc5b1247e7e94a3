open Memmodel

(* Does [th] read a stage-2 page-table base anywhere? The W004 rules only
   bite when some other CPU can walk the table concurrently. *)
let reads_pt (th : Prog.thread) =
  let rec go = function
    | [] -> false
    | ins :: rest ->
        (match ins with
        | Instr.If (_, a, b) -> go a || go b
        | Instr.While (_, body) -> go body
        | Instr.Load (_, a, _) -> Cfg.is_s2_pt_base a.Expr.abase
        | _ -> (
            match Cfg.access_base ins with
            | Some b -> Cfg.is_rmw ins && Cfg.is_s2_pt_base b
            | None -> false))
        || go rest
  in
  go th.Prog.code

module PtSet = Set.Make (struct
  type t = int list

  let compare = Stdlib.compare
end)

(* A frame carries its acquiring points as a set (joins may merge
   sections opened at different pulls) and must/may versions of its
   saw-PT-write and pending-unrelated-write flags. Joining stacks of
   different heights loses frame tracking entirely: the state degrades
   to a dirty summary that can only report [Possible]. *)
type fframe = {
  ff_pts : PtSet.t;
  ff_saw_must : bool;
  ff_saw_may : bool;
  ff_pend_must : bool;
  ff_pend_may : bool;
}

let msg_outside base =
  Printf.sprintf
    "stage-2 page table '%s' written outside a transactional section \
     while another CPU walks the table"
    base

let fix_outside = "wrap the page-table update in a lock-held pull/push section"

let msg_noncontig base =
  Printf.sprintf
    "page-table write to '%s' follows an unrelated write in the same \
     transactional section; a concurrent walker can observe a \
     half-updated table"
    base

let fix_noncontig =
  "keep the page-table writes of a transaction contiguous, or split them \
   into separate transactions"

let msg_unclosed =
  "transactional section performing page-table writes is never closed on \
   this path"

let fix_unclosed = "push the section before the thread exits"

let run (prog : Prog.t) : Diag.t list * Absint.stats list =
  let stats = ref [] in
  let diags =
    List.concat
      (List.mapi
         (fun i (th : Prog.thread) ->
           let other_reader =
             List.exists
               (fun (j, th') -> j <> i && reads_pt th')
               (List.mapi (fun j t -> (j, t)) prog.Prog.threads)
           in
           let module D = struct
             type t = Bot | S of fframe list * bool (* frames, dirty *)

             let bottom = Bot

             let fjoin a b =
               { ff_pts = PtSet.union a.ff_pts b.ff_pts;
                 ff_saw_must = a.ff_saw_must && b.ff_saw_must;
                 ff_saw_may = a.ff_saw_may || b.ff_saw_may;
                 ff_pend_must = a.ff_pend_must && b.ff_pend_must;
                 ff_pend_may = a.ff_pend_may || b.ff_pend_may }

             let join a b =
               match (a, b) with
               | Bot, x | x, Bot -> x
               | S (_, true), S (_, _) | S (_, _), S (_, true) -> S ([], true)
               | S (f1, false), S (f2, false) ->
                   if List.length f1 <> List.length f2 then S ([], true)
                   else S (List.map2 fjoin f1 f2, false)

             let fleq a b =
               PtSet.subset a.ff_pts b.ff_pts
               && b.ff_saw_must <= a.ff_saw_must
               && a.ff_saw_may <= b.ff_saw_may
               && b.ff_pend_must <= a.ff_pend_must
               && a.ff_pend_may <= b.ff_pend_may

             let leq a b =
               match (a, b) with
               | Bot, _ -> true
               | S _, Bot -> false
               | _, S (_, true) -> true
               | S (_, true), S (_, false) -> false
               | S (f1, false), S (f2, false) ->
                   List.length f1 = List.length f2 && List.for_all2 fleq f1 f2

             let transfer lbl t =
               match (t, lbl) with
               | Bot, _ | _, (Cfg.L_skip | Cfg.L_guard _) -> t
               | S (_, true), _ -> t
               | S (frames, false), Cfg.L_ins s -> (
                   match s.Cfg.ins with
                   | Instr.Pull _ ->
                       S
                         ( { ff_pts = PtSet.singleton s.Cfg.pt;
                             ff_saw_must = false;
                             ff_saw_may = false;
                             ff_pend_must = false;
                             ff_pend_may = false }
                           :: frames,
                           false )
                   | Instr.Push _ -> (
                       match frames with
                       | [] -> t
                       | _ :: fs -> S (fs, false))
                   | ins when Cfg.writes_mem ins -> (
                       let base = Option.get (Cfg.access_base ins) in
                       let is_pt = Cfg.is_s2_pt_base base in
                       match frames with
                       | [] -> t
                       | f :: fs ->
                           if is_pt then
                             S
                               ( { f with
                                   ff_saw_must = true;
                                   ff_saw_may = true;
                                   ff_pend_must = false;
                                   ff_pend_may = false }
                                 :: fs,
                                 false )
                           else
                             S
                               ( { f with
                                   ff_pend_must = f.ff_pend_must || f.ff_saw_must;
                                   ff_pend_may = f.ff_pend_may || f.ff_saw_may }
                                 :: fs,
                                 false ))
                   | _ -> t)

             let widen = join
           end in
           let g = Cfg.graph th.Prog.code in
           let fl = Absint.flow g in
           let module Sv = Absint.Solve (D) in
           let states, st = Sv.run ~live:fl.Absint.f_live g ~init:(D.S ([], false)) in
           stats := Absint.add_stats fl.Absint.f_stats st :: !stats;
           let raws = ref [] in
           let emit r = raws := r :: !raws in
           Array.iteri
             (fun n succ ->
               match states.(n) with
               | D.Bot -> ()
               | D.S (frames, dirty) ->
                   List.iter
                     (fun (lbl, _) ->
                       match lbl with
                       | Cfg.L_ins s when Cfg.writes_mem s.Cfg.ins -> (
                           let base = Option.get (Cfg.access_base s.Cfg.ins) in
                           let is_pt = Cfg.is_s2_pt_base base in
                           if is_pt && other_reader then
                             match (dirty, frames) with
                             | true, _ ->
                                 emit
                                   { Cfg.r_code = Diag.W004;
                                     r_path = s.Cfg.pt;
                                     r_message = msg_outside base;
                                     r_fix = fix_outside;
                                     r_definite = false }
                             | false, [] ->
                                 emit
                                   { Cfg.r_code = Diag.W004;
                                     r_path = s.Cfg.pt;
                                     r_message = msg_outside base;
                                     r_fix = fix_outside;
                                     r_definite = fl.Absint.f_dr n }
                             | false, f :: _ ->
                                 if f.ff_saw_may && f.ff_pend_may then
                                   emit
                                     { Cfg.r_code = Diag.W004;
                                       r_path = s.Cfg.pt;
                                       r_message = msg_noncontig base;
                                       r_fix = fix_noncontig;
                                       r_definite =
                                         f.ff_saw_must && f.ff_pend_must
                                         && fl.Absint.f_dr n })
                       | _ -> ())
                     succ)
             g.Cfg.g_succ;
           (match states.(g.Cfg.g_exit) with
           | D.Bot | D.S (_, true) -> ()
           | D.S (frames, false) ->
               List.iter
                 (fun f ->
                   if f.ff_saw_may then
                     PtSet.iter
                       (fun pt ->
                         emit
                           { Cfg.r_code = Diag.W004;
                             r_path = pt;
                             r_message = msg_unclosed;
                             r_fix = fix_unclosed;
                             r_definite =
                               f.ff_saw_must && PtSet.cardinal f.ff_pts = 1 })
                       f.ff_pts)
                 frames);
           Cfg.merge_raws ~tid:th.Prog.tid !raws)
         prog.Prog.threads)
  in
  (Diag.sort diags, !stats)
