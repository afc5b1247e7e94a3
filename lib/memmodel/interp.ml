(* The thread-local interpreter of the SC-family executors: see the
   interface for the split between this module and the models. *)

type thread = { code : Cont.t; regs : int Reg.Map.t; fuel : int }
type rmw = Add of int | Swap of int | Cas of int * int

type request =
  | Local
  | Assign of Reg.t
  | Read of Reg.t * Loc.t
  | Write of Loc.t * int
  | Rmw of Reg.t * Loc.t * rmw
  | Fence of Instr.barrier
  | Pull of string list
  | Push of string list
  | Tlbi of Loc.t option

exception Thread_panic

let lookup_reg regs r =
  match Reg.Map.find_opt r regs with Some v -> v | None -> 0

let set_reg t r v = { t with regs = Reg.Map.add r v t.regs }

let read_mem mem loc =
  match Loc.Map.find_opt loc mem with Some v -> v | None -> 0

let step t =
  match t.code with
  | Cont.Nil -> invalid_arg "Interp.step: thread done"
  | Cont.Cons { instr; rest; _ } -> (
      (* registers carry no views here: evaluate under a dummy view *)
      let env r = (lookup_reg t.regs r, 0) in
      let value e = fst (Expr.eval_v env e)
      and addr a = fst (Expr.eval_addr env a)
      and cond c = fst (Expr.eval_b env c) in
      let next req = Some (req, { t with code = rest }) in
      try
        match instr with
        | Instr.Nop -> next Local
        | Instr.Panic -> raise Thread_panic
        | Instr.Move (r, e) ->
            Some (Assign r, set_reg { t with code = rest } r (value e))
        | Instr.Load (r, a, _) -> next (Read (r, addr a))
        | Instr.Store (a, e, _) -> next (Write (addr a, value e))
        | Instr.Faa (r, a, e, _) -> next (Rmw (r, addr a, Add (value e)))
        | Instr.Xchg (r, a, e, _) -> next (Rmw (r, addr a, Swap (value e)))
        | Instr.Cas (r, a, expected, desired, _) ->
            next (Rmw (r, addr a, Cas (value expected, value desired)))
        | Instr.Barrier b -> next (Fence b)
        | Instr.Pull bases -> next (Pull bases)
        | Instr.Push bases -> next (Push bases)
        | Instr.Tlbi scope -> next (Tlbi (Option.map addr scope))
        | Instr.If (c, br_then, br_else) ->
            let code = Cont.prepend (if cond c then br_then else br_else) rest in
            Some (Local, { t with code })
        | Instr.While (c, body) ->
            if not (cond c) then next Local
            else if t.fuel <= 0 then None
            else
              Some
                ( Local,
                  { t with code = Cont.prepend body t.code; fuel = t.fuel - 1 }
                )
      with Expr.Eval_panic _ -> raise Thread_panic)

let rmw op old =
  match op with
  | Add delta -> Some (old + delta)
  | Swap v -> Some v
  | Cas (expected, desired) -> if old = expected then Some desired else None

let access mem t = function
  | Read (r, loc) -> (mem, set_reg t r (read_mem mem loc))
  | Write (loc, v) -> (Loc.Map.add loc v mem, t)
  | Rmw (r, loc, op) ->
      let old = read_mem mem loc in
      let mem =
        match rmw op old with Some v -> Loc.Map.add loc v mem | None -> mem
      in
      (mem, set_reg t r old)
  | Local | Assign _ | Fence _ | Pull _ | Push _ | Tlbi _ -> (mem, t)

let label prog i = function
  | Read (_, loc) -> Porlabel.read ~tid:i loc
  | Write (loc, _) -> Porlabel.write ~tid:i loc
  | Rmw (_, loc, _) -> Porlabel.rmw ~tid:i loc
  | Assign r when Prog.observable_reg prog i r -> Porlabel.private_ ~tid:i
  | Local | Assign _ | Fence _ | Pull _ | Push _ | Tlbi _ ->
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
