(** Exhaustive sequentially-consistent executor.

    Memory behaves as a single global map; at every step one thread executes
    its next instruction in program order (Lamport's SC). The executor
    explores {e all} interleavings by depth-first search with memoization on
    the full machine state, and returns the set of observable behaviors.

    Spin loops are unrolled up to a per-thread [fuel]; paths that exhaust
    fuel are reported as {!Behavior.Fuel_exhausted} rather than dropped. *)

type tstate = {
  code : Cont.t;
  regs : int Reg.Map.t;
  fuel : int;
}

type state = {
  mem : int Loc.Map.t;
  threads : tstate array;
}

let lookup_reg regs r =
  match Reg.Map.find_opt r regs with Some v -> v | None -> 0

(* Expression evaluation without views: wrap values with a dummy view. *)
let lookup_rv regs r = (lookup_reg regs r, 0)

let read_mem mem loc =
  match Loc.Map.find_opt loc mem with Some v -> v | None -> 0

exception Thread_panic

(** One SC step of thread [i]. Returns the successor state, or raises
    [Thread_panic]. Returns [None] if the thread ran out of fuel. *)
let step_thread (st : state) (i : int) : state option =
  let t = st.threads.(i) in
  match t.code with
  | Cont.Nil -> invalid_arg "step_thread: thread done"
  | Cont.Cons { instr; rest; _ } -> (
      let set_thread t' =
        let threads = Array.copy st.threads in
        threads.(i) <- t';
        { st with threads }
      in
      let set_thread_mem t' mem =
        let threads = Array.copy st.threads in
        threads.(i) <- t';
        { mem; threads }
      in
      try
        match instr with
        | Instr.Nop | Instr.Pull _ | Instr.Push _ | Instr.Tlbi _
        | Instr.Barrier _ ->
            Some (set_thread { t with code = rest })
        | Instr.Panic -> raise Thread_panic
        | Instr.Move (r, e) ->
            let v, _ = Expr.eval_v (lookup_rv t.regs) e in
            Some (set_thread { t with code = rest; regs = Reg.Map.add r v t.regs })
        | Instr.Load (r, a, _) ->
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            let v = read_mem st.mem loc in
            Some (set_thread { t with code = rest; regs = Reg.Map.add r v t.regs })
        | Instr.Store (a, e, _) ->
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            let v, _ = Expr.eval_v (lookup_rv t.regs) e in
            Some
              (set_thread_mem { t with code = rest } (Loc.Map.add loc v st.mem))
        | Instr.Faa (r, a, e, _) ->
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            let delta, _ = Expr.eval_v (lookup_rv t.regs) e in
            let old = read_mem st.mem loc in
            Some
              (set_thread_mem
                 { t with code = rest; regs = Reg.Map.add r old t.regs }
                 (Loc.Map.add loc (old + delta) st.mem))
        | Instr.Xchg (r, a, e, _) ->
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            let v, _ = Expr.eval_v (lookup_rv t.regs) e in
            let old = read_mem st.mem loc in
            Some
              (set_thread_mem
                 { t with code = rest; regs = Reg.Map.add r old t.regs }
                 (Loc.Map.add loc v st.mem))
        | Instr.Cas (r, a, expected, desired, _) ->
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            let exp_v, _ = Expr.eval_v (lookup_rv t.regs) expected in
            let des_v, _ = Expr.eval_v (lookup_rv t.regs) desired in
            let old = read_mem st.mem loc in
            let mem =
              if old = exp_v then Loc.Map.add loc des_v st.mem else st.mem
            in
            Some
              (set_thread_mem
                 { t with code = rest; regs = Reg.Map.add r old t.regs }
                 mem)
        | Instr.If (c, br_then, br_else) ->
            let b, _ = Expr.eval_b (lookup_rv t.regs) c in
            let code = Cont.prepend (if b then br_then else br_else) rest in
            Some (set_thread { t with code })
        | Instr.While (c, body) ->
            let b, _ = Expr.eval_b (lookup_rv t.regs) c in
            if not b then Some (set_thread { t with code = rest })
            else if t.fuel <= 0 then None
            else
              Some
                (set_thread
                   { t with
                     code = Cont.prepend body t.code;
                     fuel = t.fuel - 1 })
      with Expr.Eval_panic _ -> raise Thread_panic)

let observe (prog : Prog.t) (st : state) status : Behavior.outcome =
  Behavior.observe prog
    ~reg:(fun i r -> lookup_reg st.threads.(i).regs r)
    ~loc:(read_mem st.mem) status

let initial_state ?(fuel = 64) (prog : Prog.t) : state =
  let mem =
    List.fold_left (fun m (l, v) -> Loc.Map.add l v m) Loc.Map.empty
      prog.Prog.init
  in
  let threads =
    Array.of_list
      (List.map
         (fun th ->
           { code = Cont.of_list th.Prog.code; regs = Reg.Map.empty; fuel })
         prog.Prog.threads)
  in
  { mem; threads }

let hash_thread h (t : tstate) =
  Statekey.char h 'T';
  Statekey.int h t.fuel;
  Statekey.int h (Reg.Map.cardinal t.regs);
  Reg.Map.iter
    (fun r v ->
      Statekey.str h (Reg.name r);
      Statekey.int h v)
    t.regs;
  Statekey.absorb h (Cont.key t.code)

let state_key (st : state) : Statekey.t =
  let h = Statekey.fresh () in
  Statekey.int h (Loc.Map.cardinal st.mem);
  Loc.Map.iter
    (fun l v ->
      Statekey.loc h l;
      Statekey.int h v)
    st.mem;
  Array.iter (fun t -> hash_thread h t) st.threads;
  Statekey.finish h

(* Orbit-canonical key: shared memory hashed as usual, per-thread
   sub-keys absorbed in canonical order so thread-permuted states
   collapse to one seen-set entry (nothing thread-local in SC escapes
   the thread, so the sub-key covers everything that distinguishes
   interchangeable threads). *)
let canonical_key sym (st : state) : Statekey.t =
  let h = Statekey.fresh () in
  Statekey.int h (Loc.Map.cardinal st.mem);
  Loc.Map.iter
    (fun l v ->
      Statekey.loc h l;
      Statekey.int h v)
    st.mem;
  let sub =
    Array.map
      (fun t ->
        let th = Statekey.fresh () in
        hash_thread th t;
        Statekey.finish th)
      st.threads
  in
  Symmetry.fold_threads sym h sub;
  Statekey.finish h

(* POR footprint of thread [i]'s (unique) next transition. Under SC a
   thread has exactly one enabled transition, so any instruction that
   touches neither memory nor an observable register is silent
   (ample-eligible); barriers, pulls/pushes and TLBIs are no-ops here. *)
let label_of (prog : Prog.t) (st : state) i (instr : Instr.t) : Porlabel.t =
  let t = st.threads.(i) in
  try
    match instr with
    | Instr.Nop | Instr.Pull _ | Instr.Push _ | Instr.Tlbi _
    | Instr.Barrier _ | Instr.If _ | Instr.While _ | Instr.Panic ->
        Porlabel.silent ~tid:i
    | Instr.Move (r, _) ->
        if Prog.observable_reg prog i r then Porlabel.private_ ~tid:i
        else Porlabel.silent ~tid:i
    | Instr.Load (_, a, _) ->
        let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
        Porlabel.read ~tid:i loc
    | Instr.Store (a, _, _) ->
        let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
        Porlabel.write ~tid:i loc
    | Instr.Faa (_, a, _, _)
    | Instr.Xchg (_, a, _, _)
    | Instr.Cas (_, a, _, _, _) ->
        let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
        Porlabel.rmw ~tid:i loc
  with Expr.Eval_panic _ ->
    (* the step itself panicked and emitted; label is never used *)
    Porlabel.silent ~tid:i

(* The executor is an instance of the shared exploration engine: one SC
   transition per runnable thread, terminal states observe [Normal],
   fuel-exhausted and panicking steps emit their outcome in place. *)
module Model = struct
  type ctx = { prog : Prog.t; sym : Symmetry.t option }
  type nonrec state = state

  let sym ctx = ctx.sym

  let key ctx st =
    match ctx.sym with
    | None -> state_key st
    | Some s -> canonical_key s st

  let dummy i = Porlabel.silent ~tid:i

  let expand ctx ~labels (st : state) :
      (state, Porlabel.t) Engine.expansion =
    let prog = ctx.prog in
    let runnable = ref [] in
    Array.iteri
      (fun i t ->
        if not (Cont.is_empty t.code) then runnable := i :: !runnable)
      st.threads;
    match !runnable with
    | [] -> Engine.Terminal (Some (observe prog st Behavior.Normal))
    | rs ->
        Engine.Steps
          (List.to_seq rs
          |> Seq.map (fun i ->
                 match step_thread st i with
                 | Some st' ->
                     let lbl =
                       if labels then
                         label_of prog st i (Cont.head st.threads.(i).code)
                       else dummy i
                     in
                     Engine.Step (lbl, st')
                 | None ->
                     Engine.Emit (observe prog st Behavior.Fuel_exhausted)
                 | exception Thread_panic ->
                     Engine.Emit (observe prog st Behavior.Panicked)))
end

module E = Engine.Make (Model)

(** [run_stats ?fuel ?jobs ?deadline ?por ?sym prog] explores all SC
    interleavings of [prog] and returns its behavior set with exploration
    statistics. [por] (default on) applies sleep-set/ample partial-order
    reduction; [sym] (default on) collapses thread-permuted states of
    symmetric thread groups — same behavior set either way. *)
let run_stats ?(fuel = 64) ?(jobs = 1) ?deadline ?por ?(sym = true)
    (prog : Prog.t) : Behavior.t * Engine.stats =
  let ctx =
    { Model.prog; sym = (if sym then Symmetry.detect prog else None) }
  in
  let r = E.explore ?deadline ?por ~jobs ~ctx (initial_state ~fuel prog) in
  (r.E.behaviors, r.E.stats)

(** [run ?fuel ?jobs ?deadline prog] explores all SC interleavings of
    [prog] and returns its behavior set. *)
let run ?fuel ?jobs ?deadline ?por ?sym (prog : Prog.t) : Behavior.t =
  fst (run_stats ?fuel ?jobs ?deadline ?por ?sym prog)
