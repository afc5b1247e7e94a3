open Memmodel

module type DOMAIN = sig
  type t

  val bottom : t
  val join : t -> t -> t
  val leq : t -> t -> bool
  val transfer : Cfg.label -> t -> t
  val widen : t -> t -> t
end

type stats = { st_nodes : int; st_edges : int; st_iters : int; st_widens : int }

let zero_stats = { st_nodes = 0; st_edges = 0; st_iters = 0; st_widens = 0 }

let add_stats a b =
  { st_nodes = a.st_nodes + b.st_nodes;
    st_edges = a.st_edges + b.st_edges;
    st_iters = a.st_iters + b.st_iters;
    st_widens = a.st_widens + b.st_widens }

let widen_delay = 2

module Solve (D : DOMAIN) = struct
  let run ?(live = fun ~src:_ _ -> true) (g : Cfg.graph) ~(init : D.t) :
      D.t array * stats =
    let states = Array.make g.Cfg.g_n D.bottom in
    let reached = Array.make g.Cfg.g_n false in
    let updates = Array.make g.Cfg.g_n 0 in
    let queued = Array.make g.Cfg.g_n false in
    let q = Queue.create () in
    let enqueue n =
      if not queued.(n) then begin
        queued.(n) <- true;
        Queue.add n q
      end
    in
    states.(g.Cfg.g_entry) <- init;
    reached.(g.Cfg.g_entry) <- true;
    enqueue g.Cfg.g_entry;
    let iters = ref 0 and widens = ref 0 in
    let edges =
      Array.fold_left (fun acc succ -> acc + List.length succ) 0 g.Cfg.g_succ
    in
    while not (Queue.is_empty q) do
      let n = Queue.take q in
      queued.(n) <- false;
      let s = states.(n) in
      List.iter
        (fun (lbl, m) ->
          if live ~src:n lbl then begin
            incr iters;
            let out = D.transfer lbl s in
            let cur = states.(m) in
            let joined = if reached.(m) then D.join cur out else out in
            let next =
              if
                g.Cfg.g_loop_head.(m)
                && reached.(m)
                && updates.(m) >= widen_delay
                && not (D.leq joined cur)
              then begin
                incr widens;
                D.widen cur joined
              end
              else joined
            in
            if (not reached.(m)) || not (D.leq next cur) then begin
              states.(m) <- next;
              reached.(m) <- true;
              updates.(m) <- updates.(m) + 1;
              enqueue m
            end
          end)
        g.Cfg.g_succ.(n)
    done;
    ( states,
      { st_nodes = g.Cfg.g_n; st_edges = edges; st_iters = !iters; st_widens = !widens }
    )
end

(* ------------------------------------------------------------------ *)
(* Reachability layer: must-constants over registers.                  *)
(* ------------------------------------------------------------------ *)

module RegMap = Map.Make (struct
  type t = Reg.t

  let compare = Stdlib.compare
end)

(* A register is mapped to its known constant value; absent = unknown.
   Loads and RMW destinations go unknown (memory is out of scope here —
   this layer only tracks register arithmetic, which is what loop
   counters and peeled guards are made of). *)
module Consts = struct
  type t = Unreached | Env of int RegMap.t

  let bottom = Unreached

  let rec eval_v env : Expr.vexp -> int option = function
    | Expr.Const n -> Some n
    | Expr.Reg r -> RegMap.find_opt r env
    | Expr.Add (a, b) -> bin env ( + ) a b
    | Expr.Sub (a, b) -> bin env ( - ) a b
    | Expr.Mul (a, b) -> bin env ( * ) a b
    | Expr.Div (a, b) -> (
        match (eval_v env a, eval_v env b) with
        | Some x, Some y when y <> 0 -> Some (x / y)
        | _ -> None)

  and bin env op a b =
    match (eval_v env a, eval_v env b) with
    | Some x, Some y -> Some (op x y)
    | _ -> None

  let rec eval_b env : Expr.bexp -> bool option = function
    | Expr.Bool v -> Some v
    | Expr.Cmp (op, a, b) -> (
        match (eval_v env a, eval_v env b) with
        | Some x, Some y -> Some (Expr.eval_cmp op x y)
        | _ -> None)
    | Expr.And (a, b) -> (
        match (eval_b env a, eval_b env b) with
        | Some x, Some y -> Some (x && y)
        | Some false, _ | _, Some false -> Some false
        | _ -> None)
    | Expr.Or (a, b) -> (
        match (eval_b env a, eval_b env b) with
        | Some x, Some y -> Some (x || y)
        | Some true, _ | _, Some true -> Some true
        | _ -> None)
    | Expr.Not a -> Option.map not (eval_b env a)

  let join a b =
    match (a, b) with
    | Unreached, x | x, Unreached -> x
    | Env ea, Env eb ->
        Env
          (RegMap.merge
             (fun _ va vb ->
               match (va, vb) with
               | Some x, Some y when x = y -> Some x
               | _ -> None)
             ea eb)

  let leq a b =
    match (a, b) with
    | Unreached, _ -> true
    | Env _, Unreached -> false
    | Env ea, Env eb ->
        (* a at least as precise: every binding of b holds in a. *)
        RegMap.for_all (fun r v -> RegMap.find_opt r ea = Some v) eb

  let transfer lbl t =
    match t with
    | Unreached -> Unreached
    | Env env -> (
        match lbl with
        | Cfg.L_skip -> t
        | Cfg.L_guard g -> (
            match eval_b env g.Cfg.g_cond with
            | Some b when b <> g.Cfg.g_taken -> Unreached
            | _ -> t)
        | Cfg.L_ins { ins; _ } -> (
            match ins with
            | Instr.Move (r, e) -> (
                match eval_v env e with
                | Some v -> Env (RegMap.add r v env)
                | None -> Env (RegMap.remove r env))
            | Instr.Load (r, _, _)
            | Instr.Faa (r, _, _, _)
            | Instr.Xchg (r, _, _, _)
            | Instr.Cas (r, _, _, _, _) ->
                Env (RegMap.remove r env)
            | _ -> t))

  (* Finite per-register chains (Known -> unknown) but unboundedly many
     successive Known values around a loop: widening drops any binding
     that changed. *)
  let widen a b =
    match (a, b) with
    | Unreached, x | x, Unreached -> x
    | Env ea, Env eb ->
        Env
          (RegMap.merge
             (fun _ va vb ->
               match (va, vb) with
               | Some x, Some y when x = y -> Some x
               | _ -> None)
             ea eb)
end

(* ------------------------------------------------------------------ *)
(* Shared must-memory lattice over Cfg.Amem values.                    *)
(* ------------------------------------------------------------------ *)

module Mem = struct
  module CM = Map.Make (struct
    type t = string * int

    let compare = Stdlib.compare
  end)

  module SSet = Set.Make (String)

  type t = {
    default : string * int -> Cfg.Amem.aval;
    cells : Cfg.Amem.aval CM.t;
    smudged : SSet.t;
  }

  let init ~default ~smudged =
    { default; cells = CM.empty; smudged = SSet.of_list smudged }

  let read t ((b, _) as cell) =
    if SSet.mem b t.smudged then Cfg.Amem.Unknown_val
    else
      match CM.find_opt cell t.cells with
      | Some v -> v
      | None -> t.default cell

  let write t cell v = { t with cells = CM.add cell v t.cells }
  let smudge t b = { t with smudged = SSet.add b t.smudged }

  let vjoin a b =
    match (a, b) with
    | Cfg.Amem.Known x, Cfg.Amem.Known y when x = y -> Cfg.Amem.Known x
    | _ -> Cfg.Amem.Unknown_val

  let keys t = CM.fold (fun k _ acc -> k :: acc) t.cells []

  let join a b =
    let ks = List.sort_uniq Stdlib.compare (keys a @ keys b) in
    let cells =
      List.fold_left
        (fun m k -> CM.add k (vjoin (read a k) (read b k)) m)
        CM.empty ks
    in
    { a with cells; smudged = SSet.union a.smudged b.smudged }

  let leq a b =
    SSet.subset a.smudged b.smudged
    && List.for_all
         (fun k ->
           match (read b k, read a k) with
           | Cfg.Amem.Unknown_val, _ -> true
           | Cfg.Amem.Known y, Cfg.Amem.Known x -> x = y
           | Cfg.Amem.Known _, Cfg.Amem.Unknown_val -> false)
         (keys a @ keys b)
end

type flow = {
  f_graph : Cfg.graph;
  f_live : src:int -> Cfg.label -> bool;
  f_reachable : int -> bool;
  f_dr : int -> bool;
  f_stats : stats;
}

let flow (g : Cfg.graph) : flow =
  let module S = Solve (Consts) in
  let states, st = S.run g ~init:(Consts.Env RegMap.empty) in
  let live ~src lbl =
    match (states.(src), lbl) with
    | Consts.Unreached, _ -> false
    | Consts.Env env, Cfg.L_guard gd -> (
        match Consts.eval_b env gd.Cfg.g_cond with
        | Some b -> b = gd.Cfg.g_taken
        | None -> true)
    | Consts.Env _, _ -> true
  in
  let reachable n = states.(n) <> Consts.Unreached in
  let dr n =
    reachable n
    && List.for_all
         (fun gt ->
           match states.(gt.Cfg.gt_node) with
           | Consts.Unreached -> false
           | Consts.Env env ->
               Consts.eval_b env gt.Cfg.gt_cond = Some gt.Cfg.gt_taken)
         g.Cfg.g_gates.(n)
  in
  { f_graph = g; f_live = live; f_reachable = reachable; f_dr = dr; f_stats = st }
