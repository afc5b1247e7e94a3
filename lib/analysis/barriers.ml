open Memmodel

(* The adequacy predicates, kept textually in sync with Check_barrier
   (the harness enforces behavioral agreement in both directions). *)

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

let is_dmb_ld = function
  | Instr.Barrier (Instr.Dmb_full | Instr.Dmb_ld) -> true
  | _ -> false

let is_dmb_st = function
  | Instr.Barrier (Instr.Dmb_full | Instr.Dmb_st) -> true
  | _ -> false

(* W007: ISB after control-dependent page-table reads. Registers loaded
   from a PT base are tainted; a branch on a tainted register whose body
   loads again, with no ISB in between, is advisory-flagged. *)
let w007 (prog : Prog.t) : Diag.t list =
  let rec branch_loads = function
    | [] -> false
    | Instr.Load _ :: _ -> true
    | Instr.If (_, a, b) :: rest ->
        branch_loads a || branch_loads b || branch_loads rest
    | Instr.While (_, body) :: rest -> branch_loads body || branch_loads rest
    | _ :: rest -> branch_loads rest
  in
  List.concat_map
    (fun (th : Prog.thread) ->
      let out = ref [] in
      let rec scan prefix k tainted = function
        | [] -> ()
        | ins :: rest ->
            let tainted' =
              match ins with
              | Instr.Load (r, a, _) when Cfg.is_pt_base a.Expr.abase ->
                  r :: tainted
              | Instr.Load (r, _, _) ->
                  List.filter (fun r' -> r' <> r) tainted
              | Instr.Barrier Instr.Isb -> []
              | Instr.Move (r, e) ->
                  if
                    List.exists
                      (fun r' -> List.mem r' tainted)
                      (Expr.regs_of_vexp e)
                  then r :: tainted
                  else List.filter (fun r' -> r' <> r) tainted
              | _ -> tainted
            in
            (match ins with
            | Instr.If (c, a, b) ->
                if
                  List.exists
                    (fun r' -> List.mem r' tainted)
                    (Expr.regs_of_bexp c)
                  && (branch_loads a || branch_loads b)
                then
                  out :=
                    { Diag.d_code = Diag.W007;
                      d_tid = th.Prog.tid;
                      d_path = prefix @ [ k ];
                      d_certainty = Diag.Possible;
                      d_message =
                        "branch on a value read from a page table is \
                         followed by loads with no ISB: the control \
                         dependency alone does not order them";
                      d_fix =
                        "insert `isb` between the page-table read and \
                         the dependent loads" }
                    :: !out;
                scan (prefix @ [ k; 0 ]) 0 tainted a;
                scan (prefix @ [ k; 1 ]) 0 tainted b
            | Instr.While (_, body) -> scan (prefix @ [ k; 0 ]) 0 tainted body
            | _ -> ());
            scan prefix (k + 1) tainted' rest
      in
      scan [] 0 [] th.Prog.code;
      !out)
    prog.Prog.threads

let pull_msg bases =
  Printf.sprintf
    "pull of {%s} not fulfilled by an acquire access or DMB(LD) on this \
     path"
    (String.concat ", " bases)

let pull_fix_str =
  "make the lock-acquiring access acquire-flavored (LDAR / acquire RMW), \
   or insert `dmb ld` between the pull and the first protected access"

let push_msg bases =
  Printf.sprintf
    "push of {%s} not fulfilled by a release access or DMB(ST) on this \
     path"
    (String.concat ", " bases)

let push_fix_str =
  "make the lock-releasing store release-flavored (STLR / release RMW), \
   or insert `dmb st` between the last protected access and the push"

module SS = Set.Make (String)

module Ob = Set.Make (struct
  type t = int list * string list (* pull/push point, annotated bases *)

  let compare = Stdlib.compare
end)

(* The two backward barrier scans become forward state: [seen] is a
   must-flag (a barrier of the right flavour on every incoming path),
   [dirty] the may-set of bases accessed since it. The two forward
   scans become pending obligations, killed by the fulfilling barrier
   and reported when an annotated base is accessed (or the thread
   exits) first — exactly when Check_barrier's scans fail. *)
type bstate = {
  acq_seen : bool;
  acq_dirty : SS.t;
  st_seen : bool;
  st_dirty : SS.t;
  pulls : Ob.t;
  pushes : Ob.t;
}

let w002 (prog : Prog.t) : Diag.t list * Absint.stats list =
  let stats = ref [] in
  let diags =
    List.concat_map
      (fun (th : Prog.thread) ->
        let module D = struct
          type t = Bot | S of bstate

          let bottom = Bot

          let join a b =
            match (a, b) with
            | Bot, x | x, Bot -> x
            | S a, S b ->
                S
                  { acq_seen = a.acq_seen && b.acq_seen;
                    acq_dirty = SS.union a.acq_dirty b.acq_dirty;
                    st_seen = a.st_seen && b.st_seen;
                    st_dirty = SS.union a.st_dirty b.st_dirty;
                    pulls = Ob.union a.pulls b.pulls;
                    pushes = Ob.union a.pushes b.pushes }

          let leq a b =
            match (a, b) with
            | Bot, _ -> true
            | S _, Bot -> false
            | S a, S b ->
                (b.acq_seen <= a.acq_seen)
                && SS.subset a.acq_dirty b.acq_dirty
                && (b.st_seen <= a.st_seen)
                && SS.subset a.st_dirty b.st_dirty
                && Ob.subset a.pulls b.pulls
                && Ob.subset a.pushes b.pushes

          let transfer lbl t =
            match (t, lbl) with
            | Bot, _ | _, (Cfg.L_skip | Cfg.L_guard _) -> t
            | S s, Cfg.L_ins step -> (
                let ins = step.Cfg.ins in
                (* A DMB(LD)/DMB both fulfills prior pull obligations
                   (forward) and counts as acquireish for later pulls
                   (Check_barrier's backward before-scan). *)
                let s =
                  if is_dmb_ld ins then
                    { s with
                      pulls = Ob.empty;
                      acq_seen = true;
                      acq_dirty = SS.empty }
                  else s
                in
                let s =
                  if is_releaseish ins then { s with pushes = Ob.empty } else s
                in
                let s = if is_dmb_st ins then
                    { s with st_seen = true; st_dirty = SS.empty }
                  else s
                in
                match ins with
                | Instr.Pull bases ->
                    if
                      s.acq_seen
                      && List.for_all
                           (fun b -> not (SS.mem b s.acq_dirty))
                           bases
                    then S s
                    else S { s with pulls = Ob.add (step.Cfg.pt, bases) s.pulls }
                | Instr.Push bases ->
                    if
                      s.st_seen
                      && List.for_all (fun b -> not (SS.mem b s.st_dirty)) bases
                    then S s
                    else
                      S { s with pushes = Ob.add (step.Cfg.pt, bases) s.pushes }
                | _ -> (
                    match Cfg.access_base ins with
                    | None -> S s
                    | Some b ->
                        let kill obs =
                          Ob.filter (fun (_, bs) -> not (List.mem b bs)) obs
                        in
                        let s =
                          { s with pulls = kill s.pulls; pushes = kill s.pushes }
                        in
                        let s =
                          if is_acquireish ins then
                            { s with acq_seen = true; acq_dirty = SS.empty }
                          else { s with acq_dirty = SS.add b s.acq_dirty }
                        in
                        S { s with st_dirty = SS.add b s.st_dirty }))

          let widen = join
        end in
        let g = Cfg.graph th.Prog.code in
        let fl = Absint.flow g in
        let module Sv = Absint.Solve (D) in
        let init =
          D.S
            { acq_seen = false;
              acq_dirty = SS.empty;
              st_seen = false;
              st_dirty = SS.empty;
              pulls = Ob.empty;
              pushes = Ob.empty }
        in
        let states, st = Sv.run ~live:fl.Absint.f_live g ~init in
        stats := Absint.add_stats fl.Absint.f_stats st :: !stats;
        let raws = ref [] in
        let fail_pull (pt, bases) =
          raws :=
            { Cfg.r_code = Diag.W002;
              r_path = pt;
              r_message = pull_msg bases;
              r_fix = pull_fix_str;
              r_definite = true }
            :: !raws
        in
        let fail_push (pt, bases) =
          raws :=
            { Cfg.r_code = Diag.W002;
              r_path = pt;
              r_message = push_msg bases;
              r_fix = push_fix_str;
              r_definite = true }
            :: !raws
        in
        Array.iteri
          (fun n succ ->
            match states.(n) with
            | D.Bot -> ()
            | D.S s ->
                List.iter
                  (fun (lbl, _) ->
                    match lbl with
                    | Cfg.L_ins step -> (
                        let ins = step.Cfg.ins in
                        match Cfg.access_base ins with
                        | Some b ->
                            if not (is_dmb_ld ins) then
                              Ob.iter
                                (fun ((_, bs) as o) ->
                                  if List.mem b bs then fail_pull o)
                                s.pulls;
                            if not (is_releaseish ins) then
                              Ob.iter
                                (fun ((_, bs) as o) ->
                                  if List.mem b bs then fail_push o)
                                s.pushes
                        | None -> ())
                    | _ -> ())
                  succ)
          g.Cfg.g_succ;
        (match states.(g.Cfg.g_exit) with
        | D.Bot -> ()
        | D.S s ->
            Ob.iter fail_pull s.pulls;
            Ob.iter fail_push s.pushes);
        Cfg.merge_raws ~tid:th.Prog.tid !raws)
      prog.Prog.threads
  in
  (diags, !stats)

let run (prog : Prog.t) : Diag.t list * Absint.stats list =
  let d2, stats = w002 prog in
  (Diag.sort (d2 @ w007 prog), stats)
