open Memmodel

type step = { pt : int list; ins : Instr.t }

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let has_suffix suf s =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

let is_el2_base b = has_prefix "el2" b
let is_pt_base b = is_el2_base b || has_prefix "pte" b || has_prefix "pt_" b
let is_s2_pt_base b = is_pt_base b && not (is_el2_base b)

let is_lock_base b =
  List.exists
    (fun s -> has_suffix s b)
    [ ".ticket"; ".now"; ".tail"; ".locked"; ".next" ]

let access_base = function
  | Instr.Load (_, a, _)
  | Instr.Store (a, _, _)
  | Instr.Faa (_, a, _, _)
  | Instr.Xchg (_, a, _, _)
  | Instr.Cas (_, a, _, _, _) ->
      Some a.Expr.abase
  | _ -> None

let is_rmw = function
  | Instr.Faa _ | Instr.Xchg _ | Instr.Cas _ -> true
  | _ -> false

let writes_mem = function
  | Instr.Store _ | Instr.Faa _ | Instr.Xchg _ | Instr.Cas _ -> true
  | _ -> false

let rec const_of_vexp : Expr.vexp -> int option = function
  | Expr.Const n -> Some n
  | Expr.Reg _ -> None
  | Expr.Add (a, b) -> bin ( + ) a b
  | Expr.Sub (a, b) -> bin ( - ) a b
  | Expr.Mul (a, b) -> bin ( * ) a b
  | Expr.Div (a, b) -> (
      match (const_of_vexp a, const_of_vexp b) with
      | Some x, Some y when y <> 0 -> Some (x / y)
      | _ -> None)

and bin op a b =
  match (const_of_vexp a, const_of_vexp b) with
  | Some x, Some y -> Some (op x y)
  | _ -> None

let store_target = function
  | Instr.Store (a, _, _) -> Some (a.Expr.abase, const_of_vexp a.Expr.offset)
  | _ -> None

module Amem = struct
  type aval = Known of int | Unknown_val

  module M = Map.Make (struct
    type t = string * int

    let compare = Stdlib.compare
  end)

  let init ~pred (prog : Prog.t) =
    let cells =
      List.fold_left
        (fun m (l, v) ->
          if pred (Loc.base l) then M.add (Loc.base l, Loc.index l) (Known v) m
          else m)
        M.empty prog.Prog.init
    in
    fun cell -> match M.find_opt cell cells with Some v -> v | None -> Known 0
end

(* ------------------------------------------------------------------ *)
(* Graph form: the CFG proper, for the Absint fixpoint solver.         *)
(* ------------------------------------------------------------------ *)

type guard = {
  g_cond : Expr.bexp;
  g_taken : bool;
  g_pt : int list;
  g_loop : bool;
  g_ins : Instr.t;
}

type label = L_ins of step | L_guard of guard | L_skip

type gate = { gt_node : int; gt_cond : Expr.bexp; gt_taken : bool }

type graph = {
  g_n : int;
  g_entry : int;
  g_exit : int;
  g_succ : (label * int) list array;
  g_gates : gate list array;
  g_loop_head : bool array;
}

let default_peel = 2

(* Loops are peeled [peel] times — [while c b] becomes
   [if c { b; if c { b; while c b } }] — before the residual loop is
   kept as a genuine back-edge (its header is marked as a widening
   point). Peeled copies retain the structural positions of the
   original body, so diagnostics land on source points; the peel depth
   is what lets a must-analysis see iteration 2 distinctly (the
   loop-carried Write-Once case) while the residual fixpoint covers
   iterations >= peel+1 soundly.

   Each node carries its [gates]: the stack of enclosing guard
   decisions (evaluation site, condition, direction). A node is
   definitely reached iff every gate's condition is must-decided in
   the gate's direction at its evaluation site. The join node
   after a loop carries only the *outer* gates: termination of the
   residual loop is structural, not gated. *)
let graph ?(peel = default_peel) (code : Instr.t list) : graph =
  let edges = ref [] in
  let gates = ref [] in
  let heads = ref [] in
  let n = ref 0 in
  let node ctx =
    let id = !n in
    incr n;
    gates := (id, ctx) :: !gates;
    id
  in
  let edge a l b = edges := (a, l, b) :: !edges in
  let rec seq entry ctx prefix k = function
    | [] -> entry
    | Instr.If (cond, a, b) :: rest ->
        let pt = prefix @ [ k ] in
        let ins = Instr.If (cond, a, b) in
        let g taken =
          L_guard { g_cond = cond; g_taken = taken; g_pt = pt; g_loop = false; g_ins = ins }
        in
        let gate taken = { gt_node = entry; gt_cond = cond; gt_taken = taken } in
        let na = node (gate true :: ctx) and nb = node (gate false :: ctx) in
        edge entry (g true) na;
        edge entry (g false) nb;
        let xa = seq na (gate true :: ctx) (pt @ [ 0 ]) 0 a in
        let xb = seq nb (gate false :: ctx) (pt @ [ 1 ]) 0 b in
        let j = node ctx in
        edge xa L_skip j;
        edge xb L_skip j;
        seq j ctx prefix (k + 1) rest
    | Instr.While (cond, body) :: rest ->
        let pt = prefix @ [ k ] in
        let ins = Instr.While (cond, body) in
        let g taken =
          L_guard { g_cond = cond; g_taken = taken; g_pt = pt; g_loop = true; g_ins = ins }
        in
        let j = node ctx in
        let rec unroll entry ictx p =
          if p = 0 then begin
            let h = node ictx in
            edge entry L_skip h;
            heads := h :: !heads;
            let bctx = { gt_node = h; gt_cond = cond; gt_taken = true } :: ictx in
            let nb = node bctx in
            edge h (g true) nb;
            let xb = seq nb bctx (pt @ [ 0 ]) 0 body in
            edge xb L_skip h;
            edge h (g false) j
          end
          else begin
            let bctx = { gt_node = entry; gt_cond = cond; gt_taken = true } :: ictx in
            let nb = node bctx in
            edge entry (g true) nb;
            edge entry (g false) j;
            let xb = seq nb bctx (pt @ [ 0 ]) 0 body in
            unroll xb bctx (p - 1)
          end
        in
        unroll entry ctx peel;
        seq j ctx prefix (k + 1) rest
    | i :: rest ->
        let n2 = node ctx in
        edge entry (L_ins { pt = prefix @ [ k ]; ins = i }) n2;
        seq n2 ctx prefix (k + 1) rest
  in
  let entry = node [] in
  let exit = seq entry [] [] 0 code in
  let succ = Array.make !n [] in
  List.iter (fun (a, l, b) -> succ.(a) <- (l, b) :: succ.(a)) !edges;
  let gts = Array.make !n [] in
  List.iter (fun (id, ctx) -> gts.(id) <- List.rev ctx) !gates;
  let lh = Array.make !n false in
  List.iter (fun h -> lh.(h) <- true) !heads;
  { g_n = !n; g_entry = entry; g_exit = exit; g_succ = succ; g_gates = gts; g_loop_head = lh }

type raw = {
  r_code : Diag.code;
  r_path : int list;
  r_message : string;
  r_fix : string;
  r_definite : bool;
}

(* A raw's [r_definite] is its final certainty (must-level defect at a
   definitely-reached point), already decided by the domain. The same
   program point can be visited along several graph edges (peeled loop
   copies, joined obligations), so findings are merged keeping the
   strongest certainty. *)
let merge_raws ~tid (raws : raw list) : Diag.t list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key = { r with r_definite = false } in
      let def = try Hashtbl.find tbl key with Not_found -> false in
      Hashtbl.replace tbl key (def || r.r_definite))
    raws;
  Hashtbl.fold
    (fun r def acc ->
      { Diag.d_code = r.r_code;
        d_tid = tid;
        d_path = r.r_path;
        d_certainty = (if def then Diag.Definite else Diag.Possible);
        d_message = r.r_message;
        d_fix = r.r_fix }
      :: acc)
    tbl []
  |> Diag.sort
