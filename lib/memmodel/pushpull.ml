(** The push/pull Promising model (paper §4.1).

    Two executable artifacts live here:

    {1 Ownership-instrumented execution}

    The DRF-Kernel condition is checked by running a program under the SC
    interleaving semantics while interpreting the ghost [Pull]/[Push]
    annotations: a CPU must pull a shared base before accessing it and push
    it afterwards; the machine {e panics} when pulling an owned base,
    pushing a non-owned base, or accessing a shared base it does not own.
    Per the paper, a program satisfies DRF-Kernel iff no interleaving
    panics. Synchronization-method internals (the ticket lock's own
    [ticket]/[now] cells) and page-table bases are exempted, exactly as the
    condition's side clause allows.

    {1 Promise-list validity (Fig. 4) and barrier fulfillment (Fig. 5)}

    A standalone validator over abstract push/pull promise lists and
    per-CPU fulfillment traces, used by unit tests mirroring the paper's
    figures and by {!Vrm.Partial_order}. *)

(* ------------------------------------------------------------------ *)
(* Ownership-instrumented SC execution                                 *)
(* ------------------------------------------------------------------ *)

type violation = {
  v_tid : int;
  v_base : string;
  v_kind : [ `Pull_owned | `Push_not_owned | `Access_not_owned ];
  v_detail : string;
}

let pp_violation fmt v =
  let kind =
    match v.v_kind with
    | `Pull_owned -> "pull of an owned location"
    | `Push_not_owned -> "push of a location not owned by this CPU"
    | `Access_not_owned -> "access to a shared location not owned"
  in
  Format.fprintf fmt "CPU %d: %s on base %s (%s)" v.v_tid kind v.v_base
    v.v_detail

(** A recorded event of one interleaved execution (consumed by the
    partial-order construction). *)
type event =
  | Ev_read of int * Loc.t * int  (** tid, loc, value *)
  | Ev_write of int * Loc.t * int
  | Ev_rmw of int * Loc.t * int * int  (** tid, loc, old, new *)
  | Ev_pull of int * string list
  | Ev_push of int * string list
  | Ev_barrier of int * Instr.barrier
  | Ev_tlbi of int * Loc.t option  (** tid, invalidated entry; [None] = all *)

let event_tid = function
  | Ev_read (t, _, _) | Ev_write (t, _, _) | Ev_rmw (t, _, _, _)
  | Ev_pull (t, _) | Ev_push (t, _) | Ev_barrier (t, _) | Ev_tlbi (t, _) ->
      t

type check_result =
  | Drf_ok of Behavior.t
  | Drf_violation of violation
  | Drf_kernel_panic of Behavior.outcome
      (** the program itself panicked (e.g. explicit [Panic]) — reported
          separately from ownership violations *)

type tstate = { code : Cont.t; regs : int Reg.Map.t; fuel : int }

type state = {
  mem : int Loc.Map.t;
  owners : (string * int) list;  (** base -> owning tid *)
  threads : tstate array;
  poison : violation option;
      (** a transition into this state violated the ownership discipline;
          expanding the state raises, so the violation surfaces at the
          same point of the depth-first order as the seed's lazy
          in-sequence raise did *)
}

let lookup_reg regs r =
  match Reg.Map.find_opt r regs with Some v -> v | None -> 0

let lookup_rv regs r = (lookup_reg regs r, 0)

let read_mem mem loc =
  match Loc.Map.find_opt loc mem with Some v -> v | None -> 0

exception Thread_panic
exception Ownership of violation

module Base_set = Set.Make (String)

(** The set of bases subject to the ownership discipline, precomputed
    once per check: every load/store/RMW of every interleaving consults
    it, so membership must not rescan the shared/exempt lists each
    time. *)
let tracked_set ~shared ~exempt =
  Base_set.diff (Base_set.of_list shared) (Base_set.of_list exempt)

let is_tracked ~tracked base = Base_set.mem base tracked

let check_access ~tracked st tid base =
  if is_tracked ~tracked base then
    match List.assoc_opt base st.owners with
    | Some o when o = tid -> ()
    | Some _ | None ->
        raise
          (Ownership
             { v_tid = tid;
               v_base = base;
               v_kind = `Access_not_owned;
               v_detail = "shared base accessed outside pull/push section" })

let step_thread ~tracked (st : state) (i : int) :
    (state * event option) option =
  let t = st.threads.(i) in
  match t.code with
  | Cont.Nil -> invalid_arg "Pushpull.step_thread: thread done"
  | Cont.Cons { instr; rest; _ } -> (
      let with_thread t' = { st with threads = (let a = Array.copy st.threads in a.(i) <- t'; a) } in
      try
        match instr with
        | Instr.Nop -> Some (with_thread { t with code = rest }, None)
        | Instr.Tlbi a ->
            let scope =
              Option.map (fun a -> fst (Expr.eval_addr (lookup_rv t.regs) a)) a
            in
            Some (with_thread { t with code = rest }, Some (Ev_tlbi (i, scope)))
        | Instr.Barrier b ->
            Some (with_thread { t with code = rest }, Some (Ev_barrier (i, b)))
        | Instr.Panic -> raise Thread_panic
        | Instr.Pull bases ->
            let tracked =
              List.filter (fun b -> is_tracked ~tracked b) bases
            in
            List.iter
              (fun b ->
                match List.assoc_opt b st.owners with
                | Some _ ->
                    raise
                      (Ownership
                         { v_tid = i;
                           v_base = b;
                           v_kind = `Pull_owned;
                           v_detail = "base already owned" })
                | None -> ())
              tracked;
            let owners = List.map (fun b -> (b, i)) tracked @ st.owners in
            Some
              ( { (with_thread { t with code = rest }) with owners },
                Some (Ev_pull (i, bases)) )
        | Instr.Push bases ->
            let tracked =
              List.filter (fun b -> is_tracked ~tracked b) bases
            in
            List.iter
              (fun b ->
                match List.assoc_opt b st.owners with
                | Some o when o = i -> ()
                | _ ->
                    raise
                      (Ownership
                         { v_tid = i;
                           v_base = b;
                           v_kind = `Push_not_owned;
                           v_detail = "base not owned by pushing CPU" }))
              tracked;
            let owners =
              List.filter (fun (b, _) -> not (List.mem b tracked)) st.owners
            in
            Some
              ( { (with_thread { t with code = rest }) with owners },
                Some (Ev_push (i, bases)) )
        | Instr.Move (r, e) ->
            let v, _ = Expr.eval_v (lookup_rv t.regs) e in
            Some
              ( with_thread
                  { t with code = rest; regs = Reg.Map.add r v t.regs },
                None )
        | Instr.Load (r, a, _) ->
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            check_access ~tracked st i (Loc.base loc);
            let v = read_mem st.mem loc in
            Some
              ( with_thread
                  { t with code = rest; regs = Reg.Map.add r v t.regs },
                Some (Ev_read (i, loc, v)) )
        | Instr.Store (a, e, _) ->
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            check_access ~tracked st i (Loc.base loc);
            let v, _ = Expr.eval_v (lookup_rv t.regs) e in
            Some
              ( { (with_thread { t with code = rest }) with
                  mem = Loc.Map.add loc v st.mem },
                Some (Ev_write (i, loc, v)) )
        | Instr.Faa (r, a, e, _) ->
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            check_access ~tracked st i (Loc.base loc);
            let delta, _ = Expr.eval_v (lookup_rv t.regs) e in
            let old = read_mem st.mem loc in
            Some
              ( { (with_thread
                     { t with code = rest; regs = Reg.Map.add r old t.regs })
                  with
                  mem = Loc.Map.add loc (old + delta) st.mem },
                Some (Ev_rmw (i, loc, old, old + delta)) )
        | Instr.Xchg (r, a, e, _) ->
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            check_access ~tracked st i (Loc.base loc);
            let v, _ = Expr.eval_v (lookup_rv t.regs) e in
            let old = read_mem st.mem loc in
            Some
              ( { (with_thread
                     { t with code = rest; regs = Reg.Map.add r old t.regs })
                  with
                  mem = Loc.Map.add loc v st.mem },
                Some (Ev_rmw (i, loc, old, v)) )
        | Instr.Cas (r, a, expected, desired, _) ->
            let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
            check_access ~tracked st i (Loc.base loc);
            let exp_v, _ = Expr.eval_v (lookup_rv t.regs) expected in
            let des_v, _ = Expr.eval_v (lookup_rv t.regs) desired in
            let old = read_mem st.mem loc in
            let mem =
              if old = exp_v then Loc.Map.add loc des_v st.mem else st.mem
            in
            Some
              ( { (with_thread
                     { t with code = rest; regs = Reg.Map.add r old t.regs })
                  with
                  mem },
                Some (Ev_rmw (i, loc, old, (if old = exp_v then des_v else old))) )
        | Instr.If (c, br_then, br_else) ->
            let b, _ = Expr.eval_b (lookup_rv t.regs) c in
            Some
              ( with_thread
                  { t with
                    code = Cont.prepend (if b then br_then else br_else) rest },
                None )
        | Instr.While (c, body) ->
            let b, _ = Expr.eval_b (lookup_rv t.regs) c in
            if not b then Some (with_thread { t with code = rest }, None)
            else if t.fuel <= 0 then None
            else
              Some
                ( with_thread
                    { t with
                      code = Cont.prepend body t.code;
                      fuel = t.fuel - 1 },
                  None )
      with Expr.Eval_panic _ -> raise Thread_panic)

let observe (prog : Prog.t) (st : state) status : Behavior.outcome =
  Behavior.observe prog
    ~reg:(fun i r -> lookup_reg st.threads.(i).regs r)
    ~loc:(read_mem st.mem) status

let hash_poison h (st : state) =
  match st.poison with
  | None -> Statekey.char h 'N'
  | Some v ->
      Statekey.char h 'V';
      Statekey.int h v.v_tid;
      Statekey.str h v.v_base;
      Statekey.int h
        (match v.v_kind with
        | `Pull_owned -> 0
        | `Push_not_owned -> 1
        | `Access_not_owned -> 2);
      Statekey.str h v.v_detail

let hash_mem_owners h (st : state) =
  Statekey.int h (Loc.Map.cardinal st.mem);
  Loc.Map.iter
    (fun l v ->
      Statekey.loc h l;
      Statekey.int h v)
    st.mem;
  List.iter
    (fun (b, o) ->
      Statekey.str h b;
      Statekey.int h o)
    (List.sort compare st.owners)

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
  hash_poison h st;
  hash_mem_owners h st;
  Array.iter (fun t -> hash_thread h t) st.threads;
  Statekey.finish h

(* Orbit-canonical key. Only used when the tracked set is empty (see
   [check_stats]): then [poison] is always [None] and [owners] never
   changes from its initial value, so neither can leak a concrete tid
   that the canonical order would have to remap. *)
let canonical_key sym (st : state) : Statekey.t =
  let h = Statekey.fresh () in
  hash_poison h st;
  hash_mem_owners h st;
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

let initial_state ~fuel ~initial_owners (prog : Prog.t) : state =
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
  { mem; owners = initial_owners; threads; poison = None }

(* POR footprint of thread [i]'s (unique, SC) next transition. Tracked
   accesses consult ownership ([obases]); pulls and pushes change it
   ([otransfer]), which is what makes them dependent on every access and
   pull/push of the same base — the orders that differ on whether a
   violation fires are never pruned. *)
let label_of ~tracked (prog : Prog.t) (st : state) i (instr : Instr.t) :
    Porlabel.t =
  let t = st.threads.(i) in
  let owned b acc = if is_tracked ~tracked b then b :: acc else acc in
  try
    match instr with
    | Instr.Nop | Instr.Tlbi _ | Instr.Barrier _ | Instr.If _
    | Instr.While _ | Instr.Panic ->
        Porlabel.silent ~tid:i
    | Instr.Pull bases | Instr.Push bases -> (
        match List.filter (fun b -> is_tracked ~tracked b) bases with
        | [] -> Porlabel.silent ~tid:i
        | tr ->
            { (Porlabel.empty ~tid:i) with obases = tr; otransfer = tr })
    | Instr.Move (r, _) ->
        if Prog.observable_reg prog i r then Porlabel.private_ ~tid:i
        else Porlabel.silent ~tid:i
    | Instr.Load (_, a, _) ->
        let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
        { (Porlabel.read ~tid:i loc) with
          obases = owned (Loc.base loc) [] }
    | Instr.Store (a, _, _) ->
        let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
        { (Porlabel.write ~tid:i loc) with
          obases = owned (Loc.base loc) [] }
    | Instr.Faa (_, a, _, _)
    | Instr.Xchg (_, a, _, _)
    | Instr.Cas (_, a, _, _, _) ->
        let loc, _ = Expr.eval_addr (lookup_rv t.regs) a in
        { (Porlabel.rmw ~tid:i loc) with
          obases = owned (Loc.base loc) [] }
  with Expr.Eval_panic _ ->
    (* the step itself panicked and emitted; label is never used *)
    Porlabel.silent ~tid:i

(* The ownership-instrumented executor is an instance of the shared
   exploration engine. An [Ownership] violation does not escape from the
   transition itself: the violating step becomes a transition into a
   {e poisoned} state, and expanding the poisoned state raises. Under
   exact search the poisoned child is expanded immediately after the
   transition is forced (depth-first), so the first violation surfaces
   at the same interleaving the seed's in-sequence raise found. The
   violating transition carries a {e global} footprint, so POR never
   sleeps it; program panics are emitted as [Panicked] outcomes and
   split off into [Drf_kernel_panic] afterwards. *)
module Model = struct
  type ctx = {
    prog : Prog.t;
    tracked : Base_set.t;
    sym : Symmetry.t option;
        (** only ever [Some] when [tracked] is empty — violations are
            then impossible and [owners] is constant, so canonical keys
            cannot mask an ownership outcome (see {!Symmetry}) *)
  }

  type nonrec state = state

  let sym ctx = ctx.sym

  let key ctx st =
    match ctx.sym with
    | None -> state_key st
    | Some s -> canonical_key s st

  let dummy i = Porlabel.silent ~tid:i

  let expand { prog; tracked; sym = _ } ~labels (st : state) :
      (state, Porlabel.t) Engine.expansion =
    match st.poison with
    | Some v -> raise (Ownership v)
    | None -> (
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
                     match step_thread ~tracked st i with
                     | Some (st', _) ->
                         let lbl =
                           if labels then
                             label_of ~tracked prog st i
                               (Cont.head st.threads.(i).code)
                           else dummy i
                         in
                         Engine.Step (lbl, st')
                     | None ->
                         Engine.Emit (observe prog st Behavior.Fuel_exhausted)
                     | exception Thread_panic ->
                         Engine.Emit (observe prog st Behavior.Panicked)
                     | exception Ownership v ->
                         (* global label: dependent on everything, never
                            slept or ample-pruned *)
                         Engine.Step
                           (Porlabel.sync ~tid:i, { st with poison = Some v }))))
end

module E = Engine.Make (Model)

(** [check_stats ?fuel ?exempt ?initial_owners ?jobs ?por ?sym prog] —
    like {!check}, also returning exploration statistics. *)
let check_stats ?(fuel = 64) ?(exempt = []) ?(initial_owners = [])
    ?(jobs = 1) ?por ?(sym = true) (prog : Prog.t) :
    check_result * Engine.stats =
  let tracked = tracked_set ~shared:(Prog.shared_bases prog) ~exempt in
  (* Symmetry only when nothing is tracked: a tracked base makes
     ownership violations possible, and a violation names a concrete
     tid — collapsing thread-permuted states could then report the
     wrong (permuted) first violation. With [tracked] empty the check
     degenerates to plain SC exploration and canonicalization is
     outcome-preserving. *)
  let symmetry =
    if sym && Base_set.is_empty tracked then Symmetry.detect prog else None
  in
  match
    E.explore ~jobs ?por
      ~ctx:{ Model.prog; tracked; sym = symmetry }
      (initial_state ~fuel ~initial_owners prog)
  with
  | r ->
      let panics, ok =
        Behavior.Outcome_set.partition
          (fun (o : Behavior.outcome) -> o.status = Behavior.Panicked)
          r.E.behaviors
      in
      ( (match Behavior.elements panics with
        | o :: _ -> Drf_kernel_panic o
        | [] -> Drf_ok ok),
        r.E.stats )
  | exception Ownership v -> (Drf_violation v, Engine.zero_stats)

(** [check ?fuel ?exempt ?initial_owners ?jobs ?por ?sym prog] explores
    all interleavings under the ownership discipline. Returns the
    behavior set if no pull/push/access ever panics, or the first
    violation found. *)
let check ?fuel ?exempt ?initial_owners ?jobs ?por ?sym (prog : Prog.t) :
    check_result =
  fst (check_stats ?fuel ?exempt ?initial_owners ?jobs ?por ?sym prog)

(** Collect the event traces of every interleaving (no memoization, for
    small programs): input to the SC-trace construction of §4.1. *)
let traces ?(fuel = 16) ?(exempt = []) ?(initial_owners = [])
    ?(max_traces = 512) (prog : Prog.t) : event list list =
  let tracked = tracked_set ~shared:(Prog.shared_bases prog) ~exempt in
  (* Trace collection drops panicking, fuel-exhausted and
     ownership-violating paths, so exceptions are absorbed per
     transition rather than propagated. *)
  let expand (st : state) : (state, event option) Engine.expansion =
    let runnable = ref [] in
    Array.iteri
      (fun i t ->
        if not (Cont.is_empty t.code) then runnable := i :: !runnable)
      st.threads;
    match !runnable with
    | [] -> Engine.Terminal None
    | rs ->
        Engine.Steps
          (List.to_seq rs
          |> Seq.filter_map (fun i ->
                 match step_thread ~tracked st i with
                 | Some (st', ev) -> Some (Engine.Step (ev, st'))
                 | None | (exception Thread_panic) | (exception Ownership _)
                   ->
                     None))
  in
  Engine.enumerate_paths ~expand ~max_paths:max_traces
    (initial_state ~fuel ~initial_owners prog)
  |> List.map (List.filter_map Fun.id)

(* ------------------------------------------------------------------ *)
(* Abstract promise lists (paper Fig. 4) and fulfillment (Fig. 5)      *)
(* ------------------------------------------------------------------ *)

type promise_entry =
  | P_pull of int * string  (** cpu, base *)
  | P_push of int * string
  | P_write of int * string * int  (** cpu, base, value *)

(** Validity of a push/pull promise list per Fig. 4: only free locations
    are pulled, only owned locations are pushed by their owner, and only
    the owner accesses an owned location. *)
let promise_list_valid (entries : promise_entry list) : (unit, string) result =
  let rec go owners = function
    | [] -> Ok ()
    | P_pull (c, b) :: rest -> (
        match List.assoc_opt b owners with
        | Some _ -> Error (Printf.sprintf "CPU %d pulls owned location %s" c b)
        | None -> go ((b, c) :: owners) rest)
    | P_push (c, b) :: rest -> (
        match List.assoc_opt b owners with
        | Some o when o = c ->
            go (List.filter (fun (b', _) -> b' <> b) owners) rest
        | Some o ->
            Error
              (Printf.sprintf "CPU %d pushes %s owned by CPU %d" c b o)
        | None -> Error (Printf.sprintf "CPU %d pushes free location %s" c b))
    | P_write (c, b, _) :: rest -> (
        match List.assoc_opt b owners with
        | Some o when o = c -> go owners rest
        | Some o ->
            Error
              (Printf.sprintf "CPU %d writes %s owned by CPU %d" c b o)
        | None ->
            Error (Printf.sprintf "CPU %d writes un-pulled location %s" c b))
  in
  go [] entries

type fulfill_event =
  | F_pull of string
  | F_push of string
  | F_barrier of Instr.barrier
  | F_acquire_access  (** load-acquire instruction *)
  | F_release_access  (** store-release instruction *)

(** Barrier fulfillment per Fig. 5: walking one CPU's trace in program
    order, every pull promise must be fulfilled by a load barrier (acquire
    access, DMB LD, or DMB full) and every push promise by a store barrier
    (release access, DMB ST, or DMB full); fulfillment must be consistent
    with program order (greedy monotone matching). *)
let fulfills_pull = function
  | F_barrier Instr.Dmb_full | F_barrier Instr.Dmb_ld | F_acquire_access ->
      true
  | _ -> false

let fulfills_push = function
  | F_barrier Instr.Dmb_full | F_barrier Instr.Dmb_st | F_release_access ->
      true
  | _ -> false

let fulfill_valid (trace : fulfill_event list) : (unit, string) result =
  (* A pull must be fulfilled by a barrier adjacent in program order (the
     barrier through which it is issued); we accept the barrier immediately
     before or after the promise event, as in Fig. 7's lock code. *)
  let arr = Array.of_list trace in
  let n = Array.length arr in
  let ok i pred =
    (i > 0 && pred arr.(i - 1)) || (i < n - 1 && pred arr.(i + 1))
  in
  let rec go i =
    if i >= n then Ok ()
    else
      match arr.(i) with
      | F_pull b ->
          if ok i fulfills_pull then go (i + 1)
          else Error (Printf.sprintf "pull of %s not fulfilled by a load barrier" b)
      | F_push b ->
          if ok i fulfills_push then go (i + 1)
          else
            Error (Printf.sprintf "push of %s not fulfilled by a store barrier" b)
      | _ -> go (i + 1)
  in
  go 0
