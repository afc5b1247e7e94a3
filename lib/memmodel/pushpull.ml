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

type state = {
  mem : int Loc.Map.t;
  owners : (string * int) list;  (** base -> owning tid *)
  threads : Interp.thread array;
  poison : violation option;
      (** a transition into this state violated the ownership discipline;
          expanding the state raises, so the violation surfaces when the
          depth-first search reaches the violating transition *)
}

exception Ownership of violation

module Base_set = Set.Make (String)

(** The set of bases subject to the ownership discipline, precomputed
    once per check: every load/store/RMW of every interleaving consults
    it, so membership must not rescan the shared/exempt lists each
    time. *)
let tracked_set ~shared ~exempt =
  Base_set.diff (Base_set.of_list shared) (Base_set.of_list exempt)

let is_tracked ~tracked base = Base_set.mem base tracked
let tracked_of ~tracked = List.filter (fun b -> is_tracked ~tracked b)

let violation v_tid v_base v_kind v_detail =
  Ownership { v_tid; v_base; v_kind; v_detail }

(* The ownership discipline on thread [i]'s request: the owner map
   after it, or [Ownership] when it pulls an owned base, pushes a base
   it does not own, or accesses a tracked base it does not own. *)
let owners_after ~tracked st i (req : Interp.request) =
  match req with
  | Interp.Pull bases ->
      let tr = tracked_of ~tracked bases in
      List.iter
        (fun b ->
          if List.mem_assoc b st.owners then
            raise (violation i b `Pull_owned "base already owned"))
        tr;
      List.map (fun b -> (b, i)) tr @ st.owners
  | Interp.Push bases ->
      let tr = tracked_of ~tracked bases in
      List.iter
        (fun b ->
          if List.assoc_opt b st.owners <> Some i then
            raise
              (violation i b `Push_not_owned "base not owned by pushing CPU"))
        tr;
      List.filter (fun (b, _) -> not (List.mem b tr)) st.owners
  | Interp.Read { loc; _ } | Interp.Write { loc; _ } | Interp.Rmw { loc; _ } ->
      let b = Loc.base loc in
      if is_tracked ~tracked b && List.assoc_opt b st.owners <> Some i then
        raise
          (violation i b `Access_not_owned
             "shared base accessed outside pull/push section");
      st.owners
  | Interp.Local _ | Interp.Assign _ | Interp.Fence _ | Interp.Tlbi _ ->
      st.owners

(* Thread [i]'s SC transition for request [req] under the ownership
   discipline, [t] being the thread advanced past it; raises
   [Ownership]. *)
let apply ~tracked (st : state) i req t =
  let owners = owners_after ~tracked st i req in
  let mem, t = Interp.access st.mem t req in
  let threads = Array.copy st.threads in
  threads.(i) <- t;
  { st with mem; owners; threads }

(* The event thread [i]'s request records, read against the memory
   [mem] it is applied to. *)
let event i mem (req : Interp.request) =
  match req with
  | Interp.Read { loc; _ } -> Some (Ev_read (i, loc, Interp.read_mem mem loc))
  | Interp.Write { loc; value; _ } -> Some (Ev_write (i, loc, value))
  | Interp.Rmw { loc; op; _ } ->
      let old = Interp.read_mem mem loc in
      Some
        (Ev_rmw (i, loc, old, Option.value (Interp.rmw op old) ~default:old))
  | Interp.Fence b -> Some (Ev_barrier (i, b))
  | Interp.Pull bases -> Some (Ev_pull (i, bases))
  | Interp.Push bases -> Some (Ev_push (i, bases))
  | Interp.Tlbi scope -> Some (Ev_tlbi (i, scope))
  | Interp.Local _ | Interp.Assign _ -> None

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

let initial_state ~fuel ~initial_owners (prog : Prog.t) : state =
  { mem = Interp.init_mem prog;
    owners = initial_owners;
    threads = Interp.init_threads ~fuel prog;
    poison = None }

(* POR footprint of thread [i]'s (unique, SC) next transition: the SC
   footprint, plus ownership. Tracked accesses consult ownership
   ([obases]); pulls and pushes change it ([otransfer]), which is what
   makes them dependent on every access and pull/push of the same base
   — the orders that differ on whether a violation fires are never
   pruned. *)
let label_of ~tracked (prog : Prog.t) i (req : Interp.request) :
    Porlabel.t =
  match req with
  | Interp.Pull bases | Interp.Push bases -> (
      match tracked_of ~tracked bases with
      | [] -> Porlabel.silent ~tid:i
      | tr -> { (Porlabel.empty ~tid:i) with obases = tr; otransfer = tr })
  | Interp.Read { loc; _ } | Interp.Write { loc; _ } | Interp.Rmw { loc; _ }
    when is_tracked ~tracked (Loc.base loc) ->
      { (Interp.label prog i req) with obases = [ Loc.base loc ] }
  | _ -> Interp.label prog i req

(* The ownership-instrumented executor is an instance of the shared
   exploration engine. An [Ownership] violation does not escape from the
   transition itself: the violating step becomes a transition into a
   {e poisoned} state, and expanding the poisoned state raises. Under
   exact search the poisoned child is expanded as soon as the search
   takes the violating transition (depth-first), so the first violation
   reported is the first one in the depth-first order. The
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

  (* Orbit-canonical under [sym], which is only set when the tracked
     set is empty (see [check_stats]): then [poison] is always [None]
     and [owners] never changes from its initial value, so neither can
     leak a concrete tid that the canonical order would have to
     remap. *)
  let key ctx st =
    let h = Statekey.fresh () in
    hash_poison h st;
    Interp.hash_mem h st.mem;
    List.iter
      (fun (b, o) ->
        Statekey.str h b;
        Statekey.int h o)
      (List.sort compare st.owners);
    Interp.key ctx.sym h Interp.hash_thread st.threads

  let expand { prog; tracked; sym = _ } (st : state) :
      (state, Porlabel.t) Engine.expansion =
    match st.poison with
    | Some v -> raise (Ownership v)
    | None ->
        Interp.expand st.threads
          ~observe:(Interp.observe prog st.threads st.mem)
          (fun i req t ->
            match apply ~tracked st i req t with
            | st' -> Engine.Step (label_of ~tracked prog i req, st')
            | exception Ownership v ->
                (* global label: dependent on everything, never slept or
                   ample-pruned *)
                Engine.Step (Porlabel.sync ~tid:i, { st with poison = Some v }))
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
  (* Only paths that terminate normally are traces: path enumeration
     drops emitted outcomes, so a panicking, fuel-exhausted or
     ownership-violating step ends its path unrecorded. *)
  let expand (st : state) : (state, event option) Engine.expansion =
    let observe = Interp.observe prog st.threads st.mem in
    Interp.expand st.threads ~observe (fun i req t ->
        match apply ~tracked st i req t with
        | st' -> Engine.Step (event i st.mem req, st')
        | exception Ownership _ -> Engine.Emit (observe Behavior.Panicked))
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
