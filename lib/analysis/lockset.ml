open Memmodel

let fix_access =
  "take the protecting lock (pull the base) around this access, or exempt \
   the base as a synchronization internal"

let thread_pulls (th : Prog.thread) base =
  let rec has = function
    | [] -> false
    | Instr.Pull bs :: _ when List.mem base bs -> true
    | Instr.If (_, a, b) :: rest -> has a || has b || has rest
    | Instr.While (_, body) :: rest -> has body || has rest
    | _ :: rest -> has rest
  in
  has th.Prog.code

let msg_access b =
  Printf.sprintf
    "access to tracked base '%s' outside any pull/push ownership" b

let claim_diag base n_claimants owners0 =
  if owners0 = [] then
    { Diag.d_code = Diag.W001;
      d_tid = 0;
      d_path = [];
      d_certainty = Diag.Possible;
      d_message =
        Printf.sprintf
          "cannot statically prove that claims on '%s' are mutually \
           exclusive (%d claimants, no common lock guard)"
          base n_claimants;
      d_fix =
        "protect every pull of the base with one common lock, or rely on \
         the dynamic checker" }
  else
    { Diag.d_code = Diag.W001;
      d_tid = 0;
      d_path = [];
      d_certainty = Diag.Possible;
      d_message =
        Printf.sprintf
          "base '%s' uses a hand-off protocol (initial owner plus %d \
           claimant(s)) the lockset analysis cannot decide"
          base n_claimants;
      d_fix =
        "hand-off protocols are verified by exhaustive exploration; no \
         static fix required" }

module SS = Set.Make (String)

(* The lock guard of a pull: the most recent guard-relevant access
   before the current point (an atomic RMW on an exempt base is a
   guard, other exempt accesses are skipped, any other access clears
   it), joined over incoming paths. [Start]/[Plain] both denote "no lock guard" (they
   join to [Mixed], which also denotes failure, so precision is never
   lost on the claim decision). *)
type gval = Start | Rmw_guard of string | Plain_guard | Mixed

let gjoin a b = if a = b then a else Mixed

(* Per-thread fixpoint facts for the whole-program claim check on
   [base]: the join of guard values observed at reachable pull sites
   ([None] if no pull site was reachable) and whether some pull may
   stay unbalanced before the lock can be released. *)
type claim_facts = { cf_guard : gval option; cf_unbalanced : bool }

let claims_fix ~exempt ~bases (th : Prog.thread) :
    (string * claim_facts) list * Absint.stats =
  let module D = struct
    type t = Bot | S of gval * SS.t * SS.t
    (* guard value, may-pending pulls, may-unbalanced (sticky) *)

    let bottom = Bot

    let join a b =
      match (a, b) with
      | Bot, x | x, Bot -> x
      | S (g1, p1, f1), S (g2, p2, f2) ->
          S (gjoin g1 g2, SS.union p1 p2, SS.union f1 f2)

    let leq a b =
      match (a, b) with
      | Bot, _ -> true
      | S _, Bot -> false
      | S (g1, p1, f1), S (g2, p2, f2) ->
          (g1 = g2 || g2 = Mixed) && SS.subset p1 p2 && SS.subset f1 f2

    let transfer lbl t =
      match (t, lbl) with
      | Bot, _ -> Bot
      | S (g, pend, fail), Cfg.L_ins s -> (
          match s.Cfg.ins with
          | Instr.Pull bs ->
              let bs = List.filter (fun b -> List.mem b bases) bs in
              S (g, SS.union pend (SS.of_list bs), fail)
          | Instr.Push bs ->
              S (g, List.fold_left (fun p b -> SS.remove b p) pend bs, fail)
          | ins -> (
              match Cfg.access_base ins with
              | Some b ->
                  let fail =
                    if Cfg.writes_mem ins && List.mem b exempt then
                      SS.union fail pend
                    else fail
                  in
                  let g =
                    if Cfg.is_rmw ins && List.mem b exempt then Rmw_guard b
                    else if List.mem b exempt then g
                    else Plain_guard
                  in
                  S (g, pend, fail)
              | None -> t))
      | _, _ -> t

    let widen = join
  end in
  let g = Cfg.graph th.Prog.code in
  let fl = Absint.flow g in
  let module S = Absint.Solve (D) in
  let states, st =
    S.run ~live:fl.Absint.f_live g ~init:(D.S (Start, SS.empty, SS.empty))
  in
  let guards = Hashtbl.create 4 in
  Array.iteri
    (fun n succ ->
      match states.(n) with
      | D.Bot -> ()
      | D.S (gv, _, _) ->
          List.iter
            (fun (lbl, _) ->
              match lbl with
              | Cfg.L_ins { Cfg.ins = Instr.Pull bs; _ } ->
                  List.iter
                    (fun b ->
                      if List.mem b bases then
                        let cur =
                          try Hashtbl.find guards b with Not_found -> gv
                        in
                        Hashtbl.replace guards b (gjoin cur gv))
                    bs
              | _ -> ())
            succ)
    g.Cfg.g_succ;
  let unbal =
    match states.(g.Cfg.g_exit) with
    | D.Bot -> SS.empty
    | D.S (_, pend, fail) -> SS.union pend fail
  in
  let facts =
    List.map
      (fun b ->
        ( b,
          { cf_guard = Hashtbl.find_opt guards b;
            cf_unbalanced = SS.mem b unbal } ))
      bases
  in
  (facts, Absint.add_stats fl.Absint.f_stats st)

let run ~exempt ~initial_owners (prog : Prog.t) :
    Diag.t list * Absint.stats list =
  let shared = Prog.shared_bases prog in
  let tracked = List.filter (fun b -> not (List.mem b exempt)) shared in
  let stats = ref [] in
  (* per-thread: accesses outside ownership, via a must/may owned-set
     lattice *)
  let thread_diags =
    List.concat
      (List.mapi
         (fun i (th : Prog.thread) ->
           let owned0 =
             SS.of_list
               (List.filter_map
                  (fun (b, idx) -> if idx = i then Some b else None)
                  initial_owners)
           in
           let module D = struct
             type t = Bot | S of SS.t * SS.t (* must-owned, may-owned *)

             let bottom = Bot

             let join a b =
               match (a, b) with
               | Bot, x | x, Bot -> x
               | S (m1, y1), S (m2, y2) ->
                   S (SS.inter m1 m2, SS.union y1 y2)

             let leq a b =
               match (a, b) with
               | Bot, _ -> true
               | S _, Bot -> false
               | S (m1, y1), S (m2, y2) -> SS.subset m2 m1 && SS.subset y1 y2

             let transfer lbl t =
               match (t, lbl) with
               | Bot, _ -> Bot
               | S (must, may), Cfg.L_ins { Cfg.ins = Instr.Pull bs; _ } ->
                   let bs =
                     SS.of_list (List.filter (fun b -> List.mem b tracked) bs)
                   in
                   S (SS.union must bs, SS.union may bs)
               | S (must, may), Cfg.L_ins { Cfg.ins = Instr.Push bs; _ } ->
                   let rm s = List.fold_left (fun s b -> SS.remove b s) s bs in
                   S (rm must, rm may)
               | _ -> t

             let widen = join
           end in
           let g = Cfg.graph th.Prog.code in
           let fl = Absint.flow g in
           let module S = Absint.Solve (D) in
           let states, st =
             S.run ~live:fl.Absint.f_live g ~init:(D.S (owned0, owned0))
           in
           stats := Absint.add_stats fl.Absint.f_stats st :: !stats;
           let raws = ref [] in
           Array.iteri
             (fun n succ ->
               match states.(n) with
               | D.Bot -> ()
               | D.S (must, may) ->
                   List.iter
                     (fun (lbl, _) ->
                       match lbl with
                       | Cfg.L_ins s -> (
                           match Cfg.access_base s.Cfg.ins with
                           | Some b
                             when List.mem b tracked && not (SS.mem b must) ->
                               raws :=
                                 { Cfg.r_code = Diag.W001;
                                   r_path = s.Cfg.pt;
                                   r_message = msg_access b;
                                   r_fix = fix_access;
                                   r_definite =
                                     (not (SS.mem b may)) && fl.Absint.f_dr n }
                                 :: !raws
                           | _ -> ())
                       | _ -> ())
                     succ)
             g.Cfg.g_succ;
           Cfg.merge_raws ~tid:th.Prog.tid !raws)
         prog.Prog.threads)
  in
  (* whole-program claims: one claims fixpoint per thread covers every
     tracked base *)
  let claim_cache = Hashtbl.create 4 in
  let facts_of i th =
    match Hashtbl.find_opt claim_cache i with
    | Some f -> f
    | None ->
        let f, st = claims_fix ~exempt ~bases:tracked th in
        stats := st :: !stats;
        Hashtbl.add claim_cache i f;
        f
  in
  let claim_diags =
    List.filter_map
      (fun base ->
        let owners0 =
          List.filter_map
            (fun (b, idx) -> if b = base then Some idx else None)
            initial_owners
        in
        let puller_idxs =
          List.concat
            (List.mapi
               (fun i (th : Prog.thread) ->
                 if thread_pulls th base then [ i ] else [])
               prog.Prog.threads)
        in
        let n_claimants =
          List.length (List.sort_uniq compare (owners0 @ puller_idxs))
        in
        if n_claimants <= 1 then None
        else if owners0 = [] then begin
          let facts =
            List.map
              (fun i ->
                List.assoc base (facts_of i (List.nth prog.Prog.threads i)))
              puller_idxs
          in
          let guards = List.map (fun f -> f.cf_guard) facts in
          let balanced = List.for_all (fun f -> not f.cf_unbalanced) facts in
          match guards with
          | Some (Rmw_guard _ as g) :: rest
            when balanced && List.for_all (fun g' -> g' = Some g) rest ->
              None
          | _ -> Some (claim_diag base n_claimants owners0)
        end
        else Some (claim_diag base n_claimants owners0))
      tracked
  in
  (Diag.sort (thread_diags @ claim_diags), !stats)
