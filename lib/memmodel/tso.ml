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
  th : Interp.thread;
  buffer : (Loc.t * int) list;  (** oldest first *)
}

type state = { mem : int Loc.Map.t; threads : tstate array }

(* newest buffered store to [loc], if any *)
let forwarded buffer loc =
  List.fold_left
    (fun acc (l, v) -> if Loc.equal l loc then Some v else acc)
    None buffer

let set_thread st i t' =
  let threads = Array.copy st.threads in
  threads.(i) <- t';
  { st with threads }

(* Apply thread [i]'s request ([th] is the thread after the
   instruction): stores enqueue, loads forward from the thread's own
   buffer, fences and atomic RMWs (x86 LOCK) drain the whole buffer to
   memory first. *)
let apply (st : state) i th (req : Interp.request) : state =
  let t = st.threads.(i) in
  match req with
  | Interp.Write { loc; value; _ } ->
      set_thread st i { th; buffer = t.buffer @ [ (loc, value) ] }
  | Interp.Read { dst; loc; _ } ->
      let v =
        match forwarded t.buffer loc with
        | Some v -> v
        | None -> Interp.read_mem st.mem loc
      in
      set_thread st i { t with th = Interp.set_reg th dst v }
  | Interp.Fence _ | Interp.Rmw _ ->
      let mem =
        List.fold_left (fun m (l, v) -> Loc.Map.add l v m) st.mem t.buffer
      in
      let mem, th = Interp.access mem th req in
      set_thread { st with mem } i { th; buffer = [] }
  | Interp.Local _ | Interp.Assign _ | Interp.Pull _ | Interp.Push _
  | Interp.Tlbi _ ->
      set_thread st i { t with th }

(* Observation reads a location as the highest-index thread's newest
   buffered store to it, else memory. Terminal states have empty
   buffers, but fuel-exhausted and panicked paths are observed
   mid-execution, with buffers still live. *)
let observe (prog : Prog.t) (st : state) status : Behavior.outcome =
  Behavior.observe prog
    ~reg:(fun i r -> Interp.lookup_reg st.threads.(i).th.Interp.regs r)
    ~loc:(fun l ->
      match
        Array.fold_left
          (fun acc t ->
            match forwarded t.buffer l with Some v -> Some v | None -> acc)
          None st.threads
      with
      | Some v -> v
      | None -> Interp.read_mem st.mem l)
    status

(* Store buffers are thread-local, so the per-thread sub-key (the
   interpreter's part plus the buffer contents) captures everything a
   within-group permutation moves; memory is shared and
   permutation-invariant. *)
let hash_thread h (t : tstate) =
  Interp.hash_thread h t.th;
  Statekey.int h (List.length t.buffer);
  List.iter
    (fun (l, v) ->
      Statekey.loc h l;
      Statekey.int h v)
    t.buffer

(* POR footprint of thread [i]'s next {e instruction} transition (drain
   transitions are labelled as writes at their location directly in
   [expand]). A transition is silent (ample-eligible) only when it is
   also the thread's unique one, i.e. the buffer is empty — otherwise a
   drain sibling exists and locally-invisible steps downgrade to
   private. Stores are private, not writes: they touch only the issuing
   thread's buffer (observation forwards from buffers, so they are not
   invisible). Fences and RMWs flush the whole buffer: global. *)
let label_of (prog : Prog.t) (st : state) i (req : Interp.request) :
    Porlabel.t =
  let empty = st.threads.(i).buffer = [] in
  let local () =
    if empty then Porlabel.silent ~tid:i else Porlabel.private_ ~tid:i
  in
  match req with
  | Interp.Local _ | Interp.Pull _ | Interp.Push _ | Interp.Tlbi _ -> local ()
  | Interp.Assign { dst; _ } ->
      if Prog.observable_reg prog i dst then Porlabel.private_ ~tid:i
      else local ()
  | Interp.Fence _ ->
      if empty then Porlabel.silent ~tid:i else Porlabel.sync ~tid:i
  | Interp.Read { loc; _ } -> Porlabel.read ~tid:i loc
  | Interp.Write _ -> Porlabel.private_ ~tid:i
  | Interp.Rmw _ -> Porlabel.sync ~tid:i

(* The executor is an instance of the shared exploration engine: per
   thread, one transition draining the oldest buffered store plus one
   instruction step; terminal states require empty buffers (everything
   eventually reaches memory). *)
module Model = struct
  type ctx = { prog : Prog.t; sym : Symmetry.t option }
  type nonrec state = state

  let sym ctx = ctx.sym

  let key ctx st =
    let h = Statekey.fresh () in
    Interp.hash_mem h st.mem;
    Interp.key ctx.sym h hash_thread st.threads

  (* Built last thread to first, so the list offers threads lowest
     index first, each thread's drain before its instruction. *)
  let expand ctx (st : state) : (state, Porlabel.t) Engine.expansion =
    let prog = ctx.prog in
    let steps = ref [] in
    for i = Array.length st.threads - 1 downto 0 do
      let t = st.threads.(i) in
      if not (Cont.is_empty t.th.Interp.code) then
        steps :=
          Interp.transition t.th ~observe:(observe prog st) (fun req th ->
              Engine.Step (label_of prog st i req, apply st i th req))
          :: !steps;
      match t.buffer with
      | (l, v) :: rest ->
          steps :=
            Engine.Step
              ( Porlabel.write ~tid:i l,
                set_thread
                  { st with mem = Loc.Map.add l v st.mem }
                  i { t with buffer = rest } )
            :: !steps
      | [] -> ()
    done;
    match !steps with
    | [] -> Engine.Terminal (Some (observe prog st Behavior.Normal))
    | steps -> Engine.Steps steps
end

module E = Engine.Make (Model)

(** Explore all TSO executions (instruction steps interleaved with buffer
    drains) and return the behavior set with exploration statistics.
    [por] (default on) applies sleep-set/ample partial-order reduction;
    [sym] (default on) collapses thread-permuted states of symmetric
    thread groups — same behavior set either way. *)
let run_stats ?(fuel = 8) ?(jobs = 1) ?deadline ?por ?(sym = true)
    (prog : Prog.t) : Behavior.t * Engine.stats =
  let threads =
    Array.map
      (fun th -> { th; buffer = [] })
      (Interp.init_threads ~fuel prog)
  in
  let ctx =
    { Model.prog; sym = (if sym then Symmetry.detect prog else None) }
  in
  let r =
    E.explore ?deadline ?por ~jobs ~ctx
      { mem = Interp.init_mem prog; threads }
  in
  (r.E.behaviors, r.E.stats)

(** Explore all TSO executions and return the behavior set. *)
let run ?fuel ?jobs ?por ?sym (prog : Prog.t) : Behavior.t =
  fst (run_stats ?fuel ?jobs ?por ?sym prog)
