(* The one instruction decoder of the explicit-state executors: see the
   interface for the split between this module and the models. *)

type rmw = Add of int | Swap of int | Cas of int * int

type request =
  | Local of { guard : int; code : Cont.t; fuel : int }
  | Assign of { dst : Reg.t; value : int; view : int }
  | Read of { dst : Reg.t; loc : Loc.t; ord : Instr.order; va : int }
  | Write of {
      loc : Loc.t; value : int; ord : Instr.order; va : int; vd : int }
  | Rmw of {
      dst : Reg.t; loc : Loc.t; op : rmw; ord : Instr.order; va : int;
      vd : int }
  | Fence of Instr.barrier
  | Pull of string list
  | Push of string list
  | Tlbi of Loc.t option

exception Thread_panic
exception Out_of_fuel

let decode env code ~fuel =
  match code with
  | Cont.Nil -> invalid_arg "Interp.decode: thread done"
  | Cont.Cons { instr; rest; _ } -> (
      try
        match instr with
        | Instr.Nop -> Local { guard = 0; code = rest; fuel }
        | Instr.Panic -> raise Thread_panic
        | Instr.Move (dst, e) ->
            let value, view = Expr.eval_v env e in
            Assign { dst; value; view }
        | Instr.Load (dst, a, ord) ->
            let loc, va = Expr.eval_addr env a in
            Read { dst; loc; ord; va }
        | Instr.Store (a, e, ord) ->
            let loc, va = Expr.eval_addr env a in
            let value, vd = Expr.eval_v env e in
            Write { loc; value; ord; va; vd }
        | Instr.Faa (dst, a, e, ord) ->
            let loc, va = Expr.eval_addr env a in
            let delta, vd = Expr.eval_v env e in
            Rmw { dst; loc; op = Add delta; ord; va; vd }
        | Instr.Xchg (dst, a, e, ord) ->
            let loc, va = Expr.eval_addr env a in
            let v, vd = Expr.eval_v env e in
            Rmw { dst; loc; op = Swap v; ord; va; vd }
        | Instr.Cas (dst, a, expected, desired, ord) ->
            let loc, va = Expr.eval_addr env a in
            let e, ve = Expr.eval_v env expected in
            let d, vd = Expr.eval_v env desired in
            Rmw { dst; loc; op = Cas (e, d); ord; va; vd = Int.max ve vd }
        | Instr.Barrier b -> Fence b
        | Instr.Pull bases -> Pull bases
        | Instr.Push bases -> Push bases
        | Instr.Tlbi None -> Tlbi None
        | Instr.Tlbi (Some a) -> Tlbi (Some (fst (Expr.eval_addr env a)))
        | Instr.If (c, _, _) ->
            let holds, guard = Expr.eval_b env c in
            Local { guard; code = Cont.branch code holds; fuel }
        | Instr.While (c, _) ->
            let holds, guard = Expr.eval_b env c in
            if not holds then Local { guard; code = rest; fuel }
            else if fuel <= 0 then raise Out_of_fuel
            else Local { guard; code = Cont.loop code; fuel = fuel - 1 }
      with Expr.Eval_panic _ -> raise Thread_panic)

let rmw op old =
  match op with
  | Add delta -> Some (old + delta)
  | Swap v -> Some v
  | Cas (expected, desired) -> if old = expected then Some desired else None

type thread = { code : Cont.t; regs : int Reg.Map.t; fuel : int }

let lookup_reg regs r =
  match Reg.Map.find_opt r regs with Some v -> v | None -> 0

let set_reg t r v = { t with regs = Reg.Map.add r v t.regs }

let read_mem mem loc =
  match Loc.Map.find_opt loc mem with Some v -> v | None -> 0

let step t =
  (* registers carry no views here: evaluate under a zero view *)
  match decode (fun r -> (lookup_reg t.regs r, 0)) t.code ~fuel:t.fuel with
  | Local { code; fuel; _ } as req -> Some (req, { t with code; fuel })
  | Assign { dst; value; _ } as req ->
      Some (req, set_reg { t with code = Cont.tail t.code } dst value)
  | req -> Some (req, { t with code = Cont.tail t.code })
  | exception Out_of_fuel -> None

let access mem t = function
  | Read { dst; loc; _ } -> (mem, set_reg t dst (read_mem mem loc))
  | Write { loc; value; _ } -> (Loc.Map.add loc value mem, t)
  | Rmw { dst; loc; op; _ } ->
      let old = read_mem mem loc in
      let mem =
        match rmw op old with Some v -> Loc.Map.add loc v mem | None -> mem
      in
      (mem, set_reg t dst old)
  | Local _ | Assign _ | Fence _ | Pull _ | Push _ | Tlbi _ -> (mem, t)

let label prog i = function
  | Read { loc; _ } -> Porlabel.read ~tid:i loc
  | Write { loc; _ } -> Porlabel.write ~tid:i loc
  | Rmw { loc; _ } -> Porlabel.rmw ~tid:i loc
  | Assign { dst; _ } when Prog.observable_reg prog i dst ->
      Porlabel.private_ ~tid:i
  | Local _ | Assign _ | Fence _ | Pull _ | Push _ | Tlbi _ ->
      Porlabel.silent ~tid:i

let init_mem (prog : Prog.t) =
  List.fold_left (fun m (l, v) -> Loc.Map.add l v m) Loc.Map.empty
    prog.Prog.init

let init_threads ~fuel (prog : Prog.t) =
  Array.of_list
    (List.map
       (fun th ->
         { code = Cont.of_list th.Prog.code; regs = Reg.Map.empty; fuel })
       prog.Prog.threads)

let runnable threads =
  let rs = ref [] in
  Array.iteri
    (fun i t -> if not (Cont.is_empty t.code) then rs := i :: !rs)
    threads;
  !rs

let observe prog threads mem status =
  Behavior.observe prog
    ~reg:(fun i r -> lookup_reg threads.(i).regs r)
    ~loc:(read_mem mem) status

let transition t ~observe apply =
  match step t with
  | Some (req, t) -> apply req t
  | None -> Engine.Emit (observe Behavior.Fuel_exhausted)
  | exception Thread_panic -> Engine.Emit (observe Behavior.Panicked)

let expand threads ~observe apply =
  match runnable threads with
  | [] -> Engine.Terminal (Some (observe Behavior.Normal))
  | rs ->
      Engine.Steps
        (List.map (fun i -> transition threads.(i) ~observe (apply i)) rs)

let hash_mem h mem =
  Statekey.int h (Loc.Map.cardinal mem);
  Loc.Map.iter
    (fun l v ->
      Statekey.loc h l;
      Statekey.int h v)
    mem

let hash_thread h t =
  Statekey.char h 'T';
  Statekey.int h t.fuel;
  Statekey.int h (Reg.Map.cardinal t.regs);
  Reg.Map.iter
    (fun r v ->
      Statekey.str h (Reg.name r);
      Statekey.int h v)
    t.regs;
  Statekey.absorb h (Cont.key t.code)

let key sym h hash threads =
  (match sym with
  | None -> Array.iter (hash h) threads
  | Some s ->
      Symmetry.fold_threads s h
        (Array.map
           (fun t ->
             let th = Statekey.fresh () in
             hash th t;
             Statekey.finish th)
           threads));
  Statekey.finish h
