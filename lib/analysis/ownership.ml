open Memmodel

(* Does [th] pull [base] unconditionally — before any branching, loop or
   panic at top level? If so, a leak of [base] in another thread is
   guaranteed to collide with this pull on some interleaving. *)
let pulls_unconditionally (th : Prog.thread) base =
  let rec go = function
    | [] -> false
    | Instr.Pull bs :: _ when List.mem base bs -> true
    | (Instr.If _ | Instr.While _ | Instr.Panic) :: _ -> false
    | _ :: rest -> go rest
  in
  go th.Prog.code

module SM = Map.Make (String)

module PtSet = Set.Make (struct
  type t = int list

  let compare = Stdlib.compare
end)

let msg_dup b = Printf.sprintf "pull of '%s' already owned by this thread" b

let fix_dup =
  "remove the duplicate pull, or push the base before re-acquiring it"

let msg_unowned b =
  Printf.sprintf "push of '%s' that this thread does not own" b

let fix_unowned = "pull the base before pushing it, or drop the push"

let msg_leak b =
  Printf.sprintf
    "ownership of '%s' pulled here is never pushed back on this path" b

let fix_leak = "push the base before the thread exits"

let run ~exempt ~initial_owners (prog : Prog.t) :
    Diag.t list * Absint.stats list =
  let shared = Prog.shared_bases prog in
  (* Mirrors [Pushpull.is_tracked]: pulls and pushes of exempt or
     non-shared bases are dynamically no-ops, so the static pass must
     ignore them too. *)
  let tracked b = List.mem b shared && not (List.mem b exempt) in
  let stats = ref [] in
  let diags =
    List.concat
      (List.mapi
         (fun i (th : Prog.thread) ->
           let owned0 =
             List.filter_map
               (fun (b, idx) -> if idx = i then Some b else None)
               initial_owners
           in
           let leak_definite base =
             List.exists
               (fun (j, th') -> j <> i && pulls_unconditionally th' base)
               (List.mapi (fun j t -> (j, t)) prog.Prog.threads)
           in
           (* owned: base -> (owned on every path, acquiring points on
              the paths that own it; [] marks initial ownership) *)
           let module D = struct
             type t = Bot | S of (bool * PtSet.t) SM.t

             let bottom = Bot

             let join a b =
               match (a, b) with
               | Bot, x | x, Bot -> x
               | S a, S b ->
                   S
                     (SM.merge
                        (fun _ va vb ->
                          match (va, vb) with
                          | Some (m1, p1), Some (m2, p2) ->
                              Some (m1 && m2, PtSet.union p1 p2)
                          | Some (_, p), None | None, Some (_, p) ->
                              Some (false, p)
                          | None, None -> None)
                        a b)

             let leq a b =
               match (a, b) with
               | Bot, _ -> true
               | S _, Bot -> false
               | S a, S b ->
                   SM.for_all
                     (fun k (m1, p1) ->
                       match SM.find_opt k b with
                       | Some (m2, p2) -> m2 <= m1 && PtSet.subset p1 p2
                       | None -> false)
                     a

             let transfer lbl t =
               match (t, lbl) with
               | Bot, _ | _, (Cfg.L_skip | Cfg.L_guard _) -> t
               | S owned, Cfg.L_ins s -> (
                   match s.Cfg.ins with
                   | Instr.Pull bs ->
                       let bs = List.filter tracked bs in
                       S
                         (List.fold_left
                            (fun owned b ->
                              match SM.find_opt b owned with
                              | Some (true, _) ->
                                  owned (* dup on every path: unchanged *)
                              | Some (false, pts) ->
                                  (* fresh on the paths that do not own *)
                                  SM.add b (true, PtSet.add s.Cfg.pt pts) owned
                              | None ->
                                  SM.add b
                                    (true, PtSet.singleton s.Cfg.pt)
                                    owned)
                            owned bs)
                   | Instr.Push bs ->
                       let bs = List.filter tracked bs in
                       S (List.fold_left (fun o b -> SM.remove b o) owned bs)
                   | _ -> t)

             let widen = join
           end in
           let g = Cfg.graph th.Prog.code in
           let fl = Absint.flow g in
           let module Sv = Absint.Solve (D) in
           let init =
             D.S
               (List.fold_left
                  (fun m b -> SM.add b (true, PtSet.empty) m)
                  SM.empty owned0)
           in
           let states, st = Sv.run ~live:fl.Absint.f_live g ~init in
           stats := Absint.add_stats fl.Absint.f_stats st :: !stats;
           let raws = ref [] in
           let emit r = raws := r :: !raws in
           Array.iteri
             (fun n succ ->
               match states.(n) with
               | D.Bot -> ()
               | D.S owned ->
                   List.iter
                     (fun (lbl, _) ->
                       match lbl with
                       | Cfg.L_ins s -> (
                           match s.Cfg.ins with
                           | Instr.Pull bs ->
                               List.iter
                                 (fun b ->
                                   if tracked b then
                                     match SM.find_opt b owned with
                                     | Some (must, _) ->
                                         emit
                                           { Cfg.r_code = Diag.W006;
                                             r_path = s.Cfg.pt;
                                             r_message = msg_dup b;
                                             r_fix = fix_dup;
                                             r_definite =
                                               must && fl.Absint.f_dr n }
                                     | None -> ())
                                 bs
                           | Instr.Push bs ->
                               List.iter
                                 (fun b ->
                                   if tracked b then
                                     match SM.find_opt b owned with
                                     | Some (true, _) -> ()
                                     | Some (false, _) ->
                                         emit
                                           { Cfg.r_code = Diag.W006;
                                             r_path = s.Cfg.pt;
                                             r_message = msg_unowned b;
                                             r_fix = fix_unowned;
                                             r_definite = false }
                                     | None ->
                                         emit
                                           { Cfg.r_code = Diag.W006;
                                             r_path = s.Cfg.pt;
                                             r_message = msg_unowned b;
                                             r_fix = fix_unowned;
                                             r_definite = fl.Absint.f_dr n })
                                 bs
                           | _ -> ())
                       | _ -> ())
                     succ)
             g.Cfg.g_succ;
           (match states.(g.Cfg.g_exit) with
           | D.Bot -> ()
           | D.S owned ->
               SM.iter
                 (fun b (must, pts) ->
                   PtSet.iter
                     (fun pt ->
                       if pt <> [] then
                         emit
                           { Cfg.r_code = Diag.W006;
                             r_path = pt;
                             r_message = msg_leak b;
                             r_fix = fix_leak;
                             r_definite =
                               leak_definite b && must
                               && PtSet.cardinal pts = 1 })
                     pts)
                 owned);
           Cfg.merge_raws ~tid:th.Prog.tid !raws)
         prog.Prog.threads)
  in
  (Diag.sort diags, !stats)
