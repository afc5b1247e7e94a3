(** Exhaustive x86-TSO executor.

    The paper's introduction hinges on a contrast: the local-DRF result
    makes SC reasoning sound on x86-TSO, but Arm's weaker model breaks it
    — which is why VRM exists. This executor makes the contrast testable:
    the same DSL programs run under TSO, and the §2 bugs that Arm admits
    (the barrier-less ticket lock's duplicate VMID, the stale vCPU
    context, load buffering) are {e unreachable} here, while genuine TSO
    relaxations (store buffering) remain.

    The model is the standard operational x86-TSO (Owens, Sarkar, Sewell):
    each thread owns a FIFO store buffer; stores enqueue; loads forward
    from the newest buffered store to the same location, else read
    memory; buffers drain to memory nondeterministically in order; fences
    and atomic RMWs flush the issuing thread's buffer. Acquire/release
    annotations are vacuous (TSO already provides them); all DMB flavours
    act as MFENCE. *)

type tstate = {
  code : Cont.t;
  regs : int Reg.Map.t;
  buffer : (Loc.t * int) list;  (** oldest first *)
  fuel : int;
}

type state = { mem : int Loc.Map.t; threads : tstate array }

let lookup_reg regs r =
  match Reg.Map.find_opt r regs with Some v -> v | None -> 0

let lookup_rv regs r = (lookup_reg regs r, 0)

let read_mem mem loc =
  match Loc.Map.find_opt loc mem with Some v -> v | None -> 0

(* newest buffered store to [loc], if any *)
let forwarded buffer loc =
  List.fold_left
    (fun acc (l, v) -> if Loc.equal l loc then Some v else acc)
    None buffer

let read st (t : tstate) loc =
  match forwarded t.buffer loc with
  | Some v -> v
  | None -> read_mem st.mem loc

exception Thread_panic

let set_thread st i t' =
  let threads = Array.copy st.threads in
  threads.(i) <- t';
  { st with threads }

(* drain the whole buffer of thread [i] into memory (fences, RMWs) *)
let flush st i =
  let t = st.threads.(i) in
  let mem =
    List.fold_left (fun m (l, v) -> Loc.Map.add l v m) st.mem t.buffer
  in
  set_thread { st with mem } i { t with buffer = [] }

type step = Next of state | Fuel_out

let step_thread (st : state) (i : int) : step =
  let t = st.threads.(i) in
  match t.code with
  | Cont.Nil -> invalid_arg "Tso.step_thread: thread done"
  | Cont.Cons { instr; rest; _ } -> (
      try
        match instr with
        | Instr.Nop | Instr.Pull _ | Instr.Push _ | Instr.Tlbi _ ->
            Next (set_thread st i { t with code = rest })
        | Instr.Panic -> raise Thread_panic
        | Instr.Move (r, e) ->
            let v, _ = Expr.eval_v (lookup_rv t.regs) e in
            Next
              (set_thread st i
                 { t with code = rest; regs = Reg.Map.add r v t.regs })
        | Instr.Load (r, a, _) ->
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            let v = read st t loc in
            Next
              (set_thread st i
                 { t with code = rest; regs = Reg.Map.add r v t.regs })
        | Instr.Store (a, e, _) ->
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            let v, _ = Expr.eval_v (lookup_rv t.regs) e in
            Next
              (set_thread st i
                 { t with code = rest; buffer = t.buffer @ [ (loc, v) ] })
        | Instr.Barrier _ ->
            (* all fences drain the local buffer on TSO *)
            let st = flush st i in
            let t = st.threads.(i) in
            Next (set_thread st i { t with code = rest })
        | Instr.Faa (r, a, e, _) ->
            (* atomic RMW: implicitly fenced on x86 (LOCK prefix) *)
            let st = flush st i in
            let t = st.threads.(i) in
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            let delta, _ = Expr.eval_v (lookup_rv t.regs) e in
            let old = read_mem st.mem loc in
            Next
              (set_thread
                 { st with mem = Loc.Map.add loc (old + delta) st.mem }
                 i
                 { t with code = rest; regs = Reg.Map.add r old t.regs })
        | Instr.Xchg (r, a, e, _) ->
            let st = flush st i in
            let t = st.threads.(i) in
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            let v, _ = Expr.eval_v (lookup_rv t.regs) e in
            let old = read_mem st.mem loc in
            Next
              (set_thread
                 { st with mem = Loc.Map.add loc v st.mem }
                 i
                 { t with code = rest; regs = Reg.Map.add r old t.regs })
        | Instr.Cas (r, a, expected, desired, _) ->
            let st = flush st i in
            let t = st.threads.(i) in
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            let exp_v, _ = Expr.eval_v (lookup_rv t.regs) expected in
            let des_v, _ = Expr.eval_v (lookup_rv t.regs) desired in
            let old = read_mem st.mem loc in
            let mem =
              if old = exp_v then Loc.Map.add loc des_v st.mem else st.mem
            in
            Next
              (set_thread { st with mem } i
                 { t with code = rest; regs = Reg.Map.add r old t.regs })
        | Instr.If (c, br_then, br_else) ->
            let b, _ = Expr.eval_b (lookup_rv t.regs) c in
            Next
              (set_thread st i
                 { t with
                   code = Cont.prepend (if b then br_then else br_else) rest })
        | Instr.While (c, body) ->
            let b, _ = Expr.eval_b (lookup_rv t.regs) c in
            if not b then Next (set_thread st i { t with code = rest })
            else if t.fuel <= 0 then Fuel_out
            else
              Next
                (set_thread st i
                   { t with
                     code = Cont.prepend body t.code;
                     fuel = t.fuel - 1 })
      with Expr.Eval_panic _ -> raise Thread_panic)

let observe (prog : Prog.t) (st : state) status : Behavior.outcome =
  Behavior.observe prog
    ~reg:(fun i r -> lookup_reg st.threads.(i).regs r)
    ~loc:(fun l ->
      (* terminal states have empty buffers, but be defensive *)
      match
        Array.fold_left
          (fun acc t ->
            match forwarded t.buffer l with Some v -> Some v | None -> acc)
          None st.threads
      with
      | Some v -> v
      | None -> read_mem st.mem l)
    status

let hash_thread h (t : tstate) =
  Statekey.char h 'T';
  Statekey.int h t.fuel;
  Statekey.int h (Reg.Map.cardinal t.regs);
  Reg.Map.iter
    (fun r v ->
      Statekey.str h (Reg.name r);
      Statekey.int h v)
    t.regs;
  Statekey.int h (List.length t.buffer);
  List.iter
    (fun (l, v) ->
      Statekey.loc h l;
      Statekey.int h v)
    t.buffer;
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

(* Orbit-canonical key: store buffers are thread-local, so the
   per-thread sub-key (registers, buffer contents, continuation)
   captures everything a within-group permutation moves; memory is
   shared and permutation-invariant. *)
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

(* POR footprint of thread [i]'s next {e instruction} transition (drain
   transitions are labelled as writes at their location directly in
   [expand]). A transition is silent (ample-eligible) only when it is
   also the thread's unique one, i.e. the buffer is empty — otherwise a
   drain sibling exists and locally-invisible steps downgrade to
   private. Stores are private, not writes: they touch only the issuing
   thread's buffer (observation forwards from buffers, so they are not
   invisible). Fences and RMWs flush the whole buffer: global. *)
let label_of (prog : Prog.t) (st : state) i (instr : Instr.t) : Porlabel.t =
  let t = st.threads.(i) in
  let local () =
    if t.buffer = [] then Porlabel.silent ~tid:i else Porlabel.private_ ~tid:i
  in
  try
    match instr with
    | Instr.Nop | Instr.Pull _ | Instr.Push _ | Instr.Tlbi _
    | Instr.If _ | Instr.While _ | Instr.Panic ->
        local ()
    | Instr.Move (r, _) ->
        if Prog.observable_reg prog i r then Porlabel.private_ ~tid:i
        else local ()
    | Instr.Barrier _ ->
        if t.buffer = [] then Porlabel.silent ~tid:i else Porlabel.sync ~tid:i
    | Instr.Load (_, a, _) ->
        let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
        Porlabel.read ~tid:i loc
    | Instr.Store _ -> Porlabel.private_ ~tid:i
    | Instr.Faa _ | Instr.Xchg _ | Instr.Cas _ -> Porlabel.sync ~tid:i
  with Expr.Eval_panic _ -> Porlabel.private_ ~tid:i

(* The executor is an instance of the shared exploration engine: per
   thread, one transition draining the oldest buffered store plus one
   instruction step; terminal states require empty buffers (everything
   eventually reaches memory). *)
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
    let n = Array.length st.threads in
    let all_done = ref true in
    for i = 0 to n - 1 do
      let t = st.threads.(i) in
      if (not (Cont.is_empty t.code)) || t.buffer <> [] then all_done := false
    done;
    if !all_done then
      Engine.Terminal (Some (observe prog st Behavior.Normal))
    else
      let thread_steps i =
        let t = st.threads.(i) in
        let drain =
          match t.buffer with
          | (l, v) :: rest ->
              let lbl =
                if labels then Porlabel.write ~tid:i l else dummy i
              in
              Seq.return
                (Engine.Step
                   ( lbl,
                     set_thread
                       { st with mem = Loc.Map.add l v st.mem }
                       i { t with buffer = rest } ))
          | [] -> Seq.empty
        in
        let instr =
          if Cont.is_empty t.code then Seq.empty
          else
            fun () ->
              Seq.Cons
                ( (match step_thread st i with
                  | Next st' ->
                      let lbl =
                        if labels then label_of prog st i (Cont.head t.code)
                        else dummy i
                      in
                      Engine.Step (lbl, st')
                  | Fuel_out ->
                      Engine.Emit (observe prog st Behavior.Fuel_exhausted)
                  | exception Thread_panic ->
                      Engine.Emit (observe prog st Behavior.Panicked)),
                  Seq.empty )
        in
        Seq.append drain instr
      in
      Engine.Steps
        (Seq.concat_map thread_steps (Seq.take n (Seq.ints 0)))
end

module E = Engine.Make (Model)

(** Explore all TSO executions (instruction steps interleaved with buffer
    drains) and return the behavior set with exploration statistics.
    [por] (default on) applies sleep-set/ample partial-order reduction;
    [sym] (default on) collapses thread-permuted states of symmetric
    thread groups — same behavior set either way. *)
let run_stats ?(fuel = 8) ?(jobs = 1) ?deadline ?por ?(sym = true)
    (prog : Prog.t) : Behavior.t * Engine.stats =
  let mem =
    List.fold_left (fun m (l, v) -> Loc.Map.add l v m) Loc.Map.empty
      prog.Prog.init
  in
  let threads =
    Array.of_list
      (List.map
         (fun th ->
           { code = Cont.of_list th.Prog.code;
             regs = Reg.Map.empty;
             buffer = [];
             fuel })
         prog.Prog.threads)
  in
  let ctx =
    { Model.prog; sym = (if sym then Symmetry.detect prog else None) }
  in
  let r = E.explore ?deadline ?por ~jobs ~ctx { mem; threads } in
  (r.E.behaviors, r.E.stats)

(** Explore all TSO executions and return the behavior set. *)
let run ?fuel ?jobs ?por ?sym (prog : Prog.t) : Behavior.t =
  fst (run_stats ?fuel ?jobs ?por ?sym prog)
