(** Executable Promising Arm relaxed-memory model.

    This is an operational model in the style of Promising-ARM (Pulte et
    al., PLDI 2019), the model the paper's Coq proofs are carried out on.
    Memory is an append-only list of timestamped {e messages}; each thread
    executes its instructions {e in program order} but may {e promise}
    future stores (append the message before executing the store), provided
    it can {e certify} the promise — demonstrate, by running solo, that it
    will fulfill it. Relaxed behavior arises from (a) promises, which let
    other threads observe a store "early", and (b) stale reads, since a load
    may return any coherent message not superseded below the thread's read
    floor.

    Per-thread views implement the four Armv8 ordering constraints the
    paper lists in §4:
    {ul
    {- data dependencies: registers carry views; a store's message timestamp
       must exceed the view of its data;}
    {- address dependencies: likewise for the address computation, and the
       read floor of a load includes its address view;}
    {- coherence: per-location [coh] timestamps forbid same-location
       reordering;}
    {- barriers: DMB instructions and acquire/release accesses raise the
       read/write floors [vrnew]/[vwnew].}}

    Control dependencies order stores (via [vctrl]) but not loads, which is
    what permits the load speculation of the paper's Example 2.

    Simplifications relative to full Promising-ARM, none of which affect
    the kernel-code corpus verified here: RMWs (ticket-lock
    [fetch_and_inc]) are not promotable and always read the
    coherence-latest message (their success case); there is no
    instruction-fetch or mixed-size machinery.

    Instructions are decoded by {!Interp}, shared with the SC-family
    models: it evaluates operands under the register views, runs control
    flow with loop fuel and panics a thread on an evaluation fault. A
    step here ({!apply}) applies the decoded request to one thread: the
    readable messages of a read, fulfil or append for a write, the
    atomic read-modify-write, barrier views, and POR labels. It returns
    thread-local successors, each the thread's new state and the
    message it appends, if any. The main search puts them back into the
    whole state; the solo runs that find promise candidates and certify
    promises keep only the thread, the memory and the next timestamp.
    The thread's code is a {!Cont}, whose nodes carry the store and
    access bases the promise pre-filters and the certification key
    need.

    Thread state is laid out over a per-exploration {!layout} that
    numbers the program's registers and location bases: registers and
    coherence timestamps are int arrays, messages carry their base id,
    and every state key hashes ints only, the int arrays whole
    ({!Statekey.ints}). A step resolves a register or base name to its
    id by physical equality against the program text's own strings,
    with no string comparison. *)

type message = {
  mloc : Loc.t;
  mbase : int;  (** layout id of [mloc]'s base ({!layout}) *)
  mval : int;
  ts : int;  (** position in the append-only memory; 0 = initial *)
  wtid : int;  (** writing thread; -1 for initial messages *)
}

type tstate = {
  code : Cont.t;
  regs : int array;
      (** two slots per register id: value, view ({!reg_get}); view
          [unwritten] marks a register never written *)
  coh : int array;
      (** per-location coherence timestamps: (base id, index, timestamp)
          triples sorted by (base id, index) ({!coh_get}) *)
  vrnew : int;  (** read floor (acquire loads, DMB LD/full) *)
  vwnew : int;  (** write floor (DMB ST/LD/full, acquire loads) *)
  vctrl : int;  (** control-dependency view: orders stores only *)
  vrmax : int;  (** join of views of executed reads (for DMB LD) *)
  vwmax : int;  (** join of timestamps of executed writes (for DMB ST) *)
  vall : int;  (** join of everything (for DMB full, release stores) *)
  vrel : int;
      (** timestamp of this thread's latest release write: acquire loads
          read no older than it (Armv8 release/acquire is RCsc — the
          [L];po;[A] ordering of the axiomatic model) *)
  fuel : int;
  promise_budget : int;
  promises : int list;  (** timestamps of outstanding promises *)
}

type state = {
  mem : message list;  (** newest first *)
  mkey : Statekey.t;  (** key of [mem], kept on append ({!mem_key_add}) *)
  next_ts : int;
  threads : tstate array;
  tkeys : Statekey.t array;
      (** per-thread key memo, filled only when the state is keyed
          ({!thread_key_memo}); [unkeyed] marks a slot not computed yet.
          Copied with [threads] in {!set_thread}, so a successor keeps
          the keys of the threads it did not change. *)
}

type config = {
  loop_fuel : int;  (** max loop iterations per thread *)
  max_promises : int;  (** max outstanding+fulfilled promises per thread *)
  cert_depth : int;  (** max solo steps during certification *)
  max_states : int;  (** exploration safety valve *)
  strict_certification : bool;
      (** re-certify every thread's outstanding promises at every step (the
          letter of the Promising semantics) instead of pruning
          unfulfillable paths at the end — same final outcomes, higher
          cost; kept as a cross-check of the lazy default *)
  cert_cache : bool;
      (** memoize certification verdicts per equivalence class (shared
          memory + certifying thread + other threads' outstanding
          promises) for the duration of one exploration; verdict-
          preserving, so the behavior set is identical either way —
          disable for A/B runs ([--no-cert-cache]) *)
}

let default_config =
  { loop_fuel = 24; max_promises = 2; cert_depth = 64;
    max_states = 2_000_000; strict_certification = false;
    cert_cache = true }

exception State_budget_exhausted

(* ------------------------------------------------------------------ *)
(* Program layout                                                      *)
(* ------------------------------------------------------------------ *)
(* Every register and every location base the program text names (its
   code, initial memory and observables), sorted and numbered from 0: a
   name's id is its position. Sorting makes base-id order equal to
   [Loc.compare]'s base order, so (base id, index) pairs order exactly
   as locations do. A location is the pair itself, never packed into one
   int, so distinct locations never share an id whatever their index.
   The layout is computed once per exploration and never changed, so
   the parallel engine's domains share it freely.

   Names resolve without comparing strings. A step's registers and
   bases are the string objects of the program text itself: the decoder
   takes them from the instructions, and [Cont]'s footprints and the
   initial memory hold the same objects. So each table also lists every
   string object the program text holds, with its id, and a lookup scans
   those with [==]. The binary search over the sorted names only serves
   a string built elsewhere. *)
type names = {
  sorted : string array;  (** the distinct names; an id indexes it *)
  objs : string array;  (** the program text's string objects... *)
  ids : int array;  (** ... and their ids *)
}

type layout = { regs : names; bases : names }

let rec search sorted s lo hi =
  if lo > hi then invalid_arg ("Promising: not in the program layout: " ^ s)
  else
    let mid = (lo + hi) lsr 1 in
    let c = String.compare sorted.(mid) s in
    if c = 0 then mid
    else if c < 0 then search sorted s (mid + 1) hi
    else search sorted s lo (mid - 1)

let rec scan n s k =
  if k = Array.length n.objs then
    search n.sorted s 0 (Array.length n.sorted - 1)
  else if Array.unsafe_get n.objs k == s then Array.unsafe_get n.ids k
  else scan n s (k + 1)

let id_of n s = scan n s 0
let base_id lay b = id_of lay.bases b
let reg_id lay r = id_of lay.regs (Reg.name r)

(* The table of the names [objs] are string objects of: each object
   listed once, in first-seen order. *)
let names_of objs =
  let sorted = Array.of_list (List.sort_uniq String.compare objs) in
  let objs =
    Array.of_list
      (List.rev
         (List.fold_left
            (fun seen s -> if List.memq s seen then seen else s :: seen)
            [] objs))
  in
  { sorted;
    objs;
    ids =
      Array.map (fun s -> search sorted s 0 (Array.length sorted - 1)) objs }

let layout_of (prog : Prog.t) =
  let regs = ref [] and bases = ref [] in
  let reg r = regs := Reg.name r :: !regs in
  let vexp e = List.iter reg (Expr.regs_of_vexp e) in
  let addr (a : Expr.aexp) =
    bases := a.Expr.abase :: !bases;
    vexp a.Expr.offset
  in
  let rec instr = function
    | Instr.Load (r, a, _) -> reg r; addr a
    | Instr.Store (a, e, _) -> addr a; vexp e
    | Instr.Faa (r, a, e, _) | Instr.Xchg (r, a, e, _) -> reg r; addr a; vexp e
    | Instr.Cas (r, a, e, e', _) -> reg r; addr a; vexp e; vexp e'
    | Instr.Move (r, e) -> reg r; vexp e
    | Instr.If (c, a, b) ->
        List.iter reg (Expr.regs_of_bexp c);
        List.iter instr a;
        List.iter instr b
    | Instr.While (c, body) ->
        List.iter reg (Expr.regs_of_bexp c);
        List.iter instr body
    | Instr.Tlbi (Some a) -> addr a
    | Instr.Tlbi None | Instr.Pull _ | Instr.Push _ | Instr.Barrier _
    | Instr.Panic | Instr.Nop -> ()
  in
  List.iter (fun th -> List.iter instr th.Prog.code) prog.Prog.threads;
  List.iter (fun (l, _) -> bases := Loc.base l :: !bases) prog.Prog.init;
  List.iter
    (function
      | Prog.Obs_reg (_, r) -> reg r
      | Prog.Obs_loc l -> bases := Loc.base l :: !bases)
    prog.Prog.observables;
  { regs = names_of (List.rev !regs); bases = names_of (List.rev !bases) }

(* Views are timestamps, never negative, so a negative view marks a
   register never written: distinct state from one written with
   (0, 0), though both read as (0, 0). *)
let unwritten = -1

let reg_get regs id =
  let w = regs.((2 * id) + 1) in
  if w = unwritten then (0, 0) else (regs.(2 * id), w)

let lookup lay regs r = reg_get regs (reg_id lay r)

(* a copy of [regs] with register [id] set to value [v], view [w] *)
let set_reg (regs : int array) id v w =
  let regs = Array.copy regs in
  regs.(2 * id) <- v;
  regs.((2 * id) + 1) <- w;
  regs

(* An entry stays once set, even at timestamp 0: whether a location has
   been accessed is part of the thread's identity. *)
let rec coh_find (coh : int array) b i k =
  if k >= Array.length coh then 0
  else if coh.(k) = b && coh.(k + 1) = i then coh.(k + 2)
  else coh_find coh b i (k + 3)

let coh_get coh b i = coh_find coh b i 0

(* the first triple not ordered before (b, i) *)
let rec coh_slot (coh : int array) b i k =
  if k < Array.length coh && (coh.(k) < b || (coh.(k) = b && coh.(k + 1) < i))
  then coh_slot coh b i (k + 3)
  else k

(* the same array when [ts] is already the entry's timestamp *)
let coh_set coh b i ts =
  let n = Array.length coh in
  let k = coh_slot coh b i 0 in
  if k < n && coh.(k) = b && coh.(k + 1) = i then begin
    if coh.(k + 2) = ts then coh
    else
      let coh = Array.copy coh in
      coh.(k + 2) <- ts;
      coh
  end
  else begin
    let coh' = Array.make (n + 3) 0 in
    Array.blit coh 0 coh' 0 k;
    coh'.(k) <- b;
    coh'.(k + 1) <- i;
    coh'.(k + 2) <- ts;
    Array.blit coh k coh' (k + 3) (n - k);
    coh'
  end

(* is [m] on the location with base id [b] and index [i]? *)
let on m b i = m.mbase = b && m.mloc.Loc.index = i

(* Memory is newest first: timestamps strictly decrease down to the
   ts-0 initial messages. So the first message on a location is its
   coherence-latest, and the first at or below a floor is the staleness
   bound. A location with no explicit initial message has a virtual one
   at ts 0; its value is 0, since every [Prog.init] entry is an explicit
   message. *)
let virtual_init loc b = { mloc = loc; mbase = b; mval = 0; ts = 0; wtid = -1 }

let rec mem_int (x : int) = function
  | [] -> false
  | y :: l -> x = y || mem_int x l

let no_promises t = match t.promises with [] -> true | _ :: _ -> false

(* the timestamp of the newest message on (b, i) at or below [floor] *)
let rec floor_bound mem b i floor =
  match mem with
  | [] -> 0
  | m :: rest ->
      if m.ts <= floor && on m b i then m.ts else floor_bound rest b i floor

(* the messages on (b, i) from [lo] up that are not in [promises], then
   the virtual initial message if no message at ts 0 was met *)
let rec readable_from promises loc b i lo has_init = function
  | m :: rest when m.ts >= lo ->
      if on m b i then
        let has_init = has_init || m.ts = 0 in
        let tail = readable_from promises loc b i lo has_init rest in
        if mem_int m.ts promises then tail else m :: tail
      else readable_from promises loc b i lo has_init rest
  | _ :: _ -> []
  | [] -> if has_init || lo > 0 then [] else [ virtual_init loc b ]

(** Readable messages for a load of [loc] (base id [b]) by thread [t]:
    coherent ([ts >= coh]), not superseded below the floor, and not one
    of the thread's own unfulfilled promises — newest first, then the
    virtual initial message. *)
let readable mem (t : tstate) loc b ~floor =
  let i = loc.Loc.index in
  let lo = Int.max (coh_get t.coh b i) (floor_bound mem b i floor) in
  readable_from t.promises loc b i lo false mem

(** One line of a witness schedule: which CPU did what. *)
type step = {
  s_tid : int;  (** thread id (as declared in the program) *)
  s_what : string;  (** human-readable action *)
}

let pp_step fmt s = Format.fprintf fmt "CPU %d: %s" s.s_tid s.s_what

let pp_schedule fmt steps =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_step fmt steps

(* ------------------------------------------------------------------ *)
(* Incremental state keys                                              *)
(* ------------------------------------------------------------------ *)
(* A state key combines the memory key, kept on every append, with one
   key per thread, memoised in the state when first requested: a
   successor shares every thread key but the stepping thread's, so
   keying it hashes one thread. The thread key covers its code through
   the continuation key ({!Cont}), computed when the code was built. *)

let mem_key_add k m =
  let h = Statekey.fresh () in
  Statekey.absorb h k;
  Statekey.int h m.mbase;
  Statekey.int h m.mloc.Loc.index;
  Statekey.int h m.mval;
  Statekey.int h m.ts;
  Statekey.int h m.wtid;
  Statekey.finish h

let mem_key_nil =
  let h = Statekey.fresh () in
  Statekey.char h 'M';
  Statekey.finish h

let mem_key mem = List.fold_right (fun m k -> mem_key_add k m) mem mem_key_nil

(* never returned by [Statekey.finish]: compared physically *)
let unkeyed = Statekey.finish (Statekey.fresh ())

let rec hash_ints h = function
  | [] -> ()
  | n :: l ->
      Statekey.int h n;
      hash_ints h l

let hash_thread h (t : tstate) =
  Statekey.char h 'T';
  Statekey.ints h
    [| t.vrnew; t.vwnew; t.vctrl; t.vrmax; t.vwmax; t.vall; t.vrel; t.fuel;
       t.promise_budget |];
  (* one (value, view) pair per register id: fixed width, since every
     thread of a program has one slot per layout register *)
  Statekey.ints h t.regs;
  Statekey.int h (Array.length t.coh);
  Statekey.ints h t.coh;
  Statekey.int h (List.length t.promises);
  hash_ints h t.promises;
  Statekey.absorb h (Cont.key t.code)

let thread_key_memo st i =
  let k = st.tkeys.(i) in
  if k != unkeyed then k
  else begin
    let h = Statekey.fresh () in
    hash_thread h st.threads.(i);
    let k = Statekey.finish h in
    st.tkeys.(i) <- k;
    k
  end

let set_thread st i t' =
  let threads = Array.copy st.threads in
  threads.(i) <- t';
  let tkeys = Array.copy st.tkeys in
  tkeys.(i) <- unkeyed;
  { st with threads; tkeys }

(* append a fresh message (it takes the next timestamp) *)
let append st m =
  { st with
    mem = m :: st.mem;
    mkey = mem_key_add st.mkey m;
    next_ts = m.ts + 1 }

(* Shared placeholder footprint for solo runs: never consulted, never
   compared. *)
let dummy_fp = Porlabel.empty ~tid:(-1)

(* The footprint of thread [i]'s memory access, in one allocation. *)
let access_fp i ~disc ~alloc ~reads ~writes ~cert_read ~cert_write :
    Porlabel.t =
  { Porlabel.tid = i; disc; silent = false; global = false; alloc; reads;
    writes; obases = []; otransfer = []; cert_read; cert_write }

(* does a thread other than [i] hold an outstanding promise at [ts]? *)
let rec promised_from threads i ts j =
  j < Array.length threads
  && ((j <> i && mem_int ts threads.(j).promises)
     || promised_from threads i ts (j + 1))

let promised_by_other threads i ts = promised_from threads i ts 0

(* the coherence-latest message on (b, idx), virtual if none *)
let rec latest_on mem loc b idx =
  match mem with
  | [] -> virtual_init loc b
  | m :: rest -> if on m b idx then m else latest_on rest loc b idx

(* Atomic read-modify-writes (FAA, XCHG, CAS) read the coherence-latest
   message and, when [Interp.rmw op] yields a write, append the new
   message adjacent to it (the append-only memory keeps the pair
   per-location adjacent forever). Reading an unfulfilled promise is
   refused: the pair could no longer be kept atomic. A CAS whose
   comparison failed degenerates to a read of the latest message.

   Footprints: the write case allocates a timestamp ([alloc]) and both
   appends to and depends on the base's message history ([cert_write] —
   it moves the coherence-latest message other threads' RMWs and
   certifications look at; [cert_read] — its own enabledness depends on
   whether the latest message is anyone's outstanding promise, which a
   fulfil of the same base can change). *)
let rmw_step ~fp lay ~mem ~next_ts ~others i t rest ~loc ~va ~vd ~ord ~dst
    ~op =
  let b = base_id lay (Loc.base loc) and idx = loc.Loc.index in
  let latest = latest_on mem loc b idx in
  if mem_int latest.ts t.promises || promised_by_other others i latest.ts
  then []
  else
    let acq = ord = Instr.Acquire || ord = Instr.Acq_rel in
    let rel = ord = Instr.Release || ord = Instr.Acq_rel in
    let view = Int.max latest.ts (Int.max va vd) in
    let vrnew = if acq then Int.max t.vrnew latest.ts else t.vrnew
    and vwnew = if acq then Int.max t.vwnew latest.ts else t.vwnew
    and regs = set_reg t.regs (reg_id lay dst) latest.mval view in
    match Interp.rmw op latest.mval with
    | Some v ->
        let ts = next_ts in
        let m = { mloc = loc; mbase = b; mval = v; ts; wtid = i } in
        let t' =
          { t with
            code = rest;
            regs;
            coh = coh_set t.coh b idx ts;
            vrmax = Int.max t.vrmax view;
            vwmax = Int.max t.vwmax ts;
            vall = Int.max t.vall ts;
            vrel = (if rel then Int.max t.vrel ts else t.vrel);
            vrnew;
            vwnew }
        in
        let lbl =
          if fp then
            let here = [ loc ] and base = [ Loc.base loc ] in
            access_fp i ~disc:0 ~alloc:true ~reads:here ~writes:here
              ~cert_read:base ~cert_write:base
          else dummy_fp
        in
        [ (t', Some m, lbl) ]
    | None ->
        let t' =
          { t with
            code = rest;
            regs;
            coh = coh_set t.coh b idx (Int.max (coh_get t.coh b idx) latest.ts);
            vrmax = Int.max t.vrmax view;
            vall = Int.max t.vall view;
            vrnew;
            vwnew }
        in
        let lbl =
          if fp then
            access_fp i ~disc:0 ~alloc:false ~reads:[ loc ] ~writes:[]
              ~cert_read:[ Loc.base loc ] ~cert_write:[]
          else dummy_fp
        in
        [ (t', None, lbl) ]

(* Conservative default observability: every register of every thread
   counts as observable, so locally-invisible steps are never marked
   ample unless the caller supplies the program's real observation
   set. *)
let any_reg : int -> Reg.t -> bool = fun _ _ -> true

(* Thread [t]'s next instruction, decoded with its registers' views. *)
let request lay (t : tstate) =
  Interp.decode (lookup lay t.regs) t.code ~fuel:t.fuel

(* an invisible, deterministic, thread-local step to [t'] *)
let quiet ~fp ~silent_ok i t' =
  let lbl =
    if not fp then dummy_fp
    else if silent_ok then Porlabel.silent ~tid:i
    else Porlabel.empty ~tid:i
  in
  [ (t', None, lbl) ]

(* one successor per readable message [ms] of a load into register
   [dst] (id) of location [loc] = (b, idx), whose coherence entry is
   [coh] *)
let rec read_steps ~fp i (t : tstate) rest dst loc b idx coh ~acq ~va = function
  | [] -> []
  | m :: ms ->
      let view = Int.max m.ts va in
      let t' =
        { t with
          code = rest;
          regs = set_reg t.regs dst m.mval view;
          coh = coh_set t.coh b idx (Int.max coh m.ts);
          vrmax = Int.max t.vrmax view;
          vall = Int.max t.vall view;
          vrnew = (if acq then Int.max t.vrnew m.ts else t.vrnew);
          vwnew = (if acq then Int.max t.vwnew m.ts else t.vwnew) }
      in
      (* the read message's timestamp discriminates the choice —
         intrinsic to the transition, stable across independent
         other-thread moves *)
      let lbl =
        if fp then
          access_fp i ~disc:m.ts ~alloc:false ~reads:[ loc ] ~writes:[]
            ~cert_read:[] ~cert_write:[]
        else dummy_fp
      in
      (t', None, lbl) :: read_steps ~fp i t rest dst loc b idx coh ~acq ~va ms

(* thread [t] past a store of (b, idx) at timestamp [ts], left with
   [promises] *)
let wrote (t : tstate) rest b idx ~release ts promises =
  { t with
    code = rest;
    coh = coh_set t.coh b idx ts;
    vwmax = Int.max t.vwmax ts;
    vall = Int.max t.vall ts;
    vrel = (if release then Int.max t.vrel ts else t.vrel);
    promises }

(* [l] without [x] *)
let rec remove_int (x : int) = function
  | [] -> []
  | y :: l -> if x = y then remove_int x l else y :: remove_int x l

(* thread [i]'s own message at timestamp [p] *)
let rec own_message mem i p =
  match mem with
  | [] -> None
  | m :: rest -> if m.ts = p && m.wtid = i then Some m else own_message rest i p

(* One successor per promise [ps] the store of [v] to [loc] = (b, idx)
   can fulfil: thread [i]'s message on the location with the value,
   above [lower] and, for a release, above [t.vall]. *)
let rec fulfil_steps ~fp mem i (t : tstate) rest loc b idx v ~lower ~release
    = function
  | [] -> []
  | p :: ps -> (
      let tail = fulfil_steps ~fp mem i t rest loc b idx v ~lower ~release ps in
      match own_message mem i p with
      | Some m
        when on m b idx && m.mval = v && m.ts > lower
             && ((not release) || m.ts > t.vall) ->
          (* flips the message's outstanding-promise status: other
             threads' RMW enabledness and certification keys on this
             base can change *)
          let lbl =
            if fp then
              access_fp i ~disc:m.ts ~alloc:false ~reads:[] ~writes:[ loc ]
                ~cert_read:[] ~cert_write:[ Loc.base loc ]
            else dummy_fp
          in
          let promises = remove_int p t.promises in
          (wrote t rest b idx ~release m.ts promises, None, lbl) :: tail
      | _ -> tail)

(** Thread [i] in state [t] carrying out its decoded request [req],
    against memory [mem] whose next free timestamp is [next_ts], while
    the threads [others] (thread [i]'s own entry is ignored) hold their
    outstanding promises. Thread-local successors: the thread's new
    state, the message the step appends, if any, and the step's POR
    footprint. Several for a load (one per readable message) or a store
    (the append and each fulfillable promise), none for an RMW on an
    outstanding promise. The main search puts each successor back into
    the whole state ({!whole}); solo runs keep the thread and memory
    alone ({!solo_apply}).

    [fp] asks for real POR footprints on each successor (solo runs leave
    it off and get a shared dummy); [silent_ok] additionally allows
    invisible deterministic steps to claim the singleton-ample property
    — the caller must guarantee the thread has no promise-step siblings
    at this state; [obs i r] tells whether observation can see thread
    [i]'s register [r]. *)
let apply ~fp ~silent_ok ~obs lay ~mem ~next_ts ~others (i : int)
    (t : tstate) (req : Interp.request) :
    (tstate * message option * Porlabel.t) list =
  let rest = Cont.tail t.code in
  match req with
  | Interp.Local { guard; code; fuel } ->
      quiet ~fp ~silent_ok i
        { t with code; fuel; vctrl = Int.max t.vctrl guard }
  | Interp.Pull _ | Interp.Push _ | Interp.Tlbi _ ->
      quiet ~fp ~silent_ok i { t with code = rest }
  | Interp.Assign { dst; value; view } ->
      let t' =
        { t with
          code = rest;
          regs = set_reg t.regs (reg_id lay dst) value view }
      in
      if fp && obs i dst then [ (t', None, Porlabel.private_ ~tid:i) ]
      else quiet ~fp ~silent_ok i t'
  | Interp.Fence b ->
      quiet ~fp ~silent_ok i
        (match b with
        | Instr.Dmb_full ->
            let v = Int.max t.vall (Int.max t.vrnew t.vwnew) in
            { t with code = rest; vrnew = v; vwnew = v }
        | Instr.Dmb_ld ->
            { t with
              code = rest;
              vrnew = Int.max t.vrnew t.vrmax;
              vwnew = Int.max t.vwnew t.vrmax }
        | Instr.Dmb_st ->
            { t with code = rest; vwnew = Int.max t.vwnew t.vwmax }
        | Instr.Isb -> { t with code = rest; vrnew = Int.max t.vrnew t.vctrl })
  | Interp.Read { dst; loc; ord; va } ->
      let b = base_id lay (Loc.base loc) and idx = loc.Loc.index in
      let acq = ord = Instr.Acquire || ord = Instr.Acq_rel in
      let floor = Int.max (Int.max t.vrnew va) (if acq then t.vrel else 0) in
      read_steps ~fp i t rest (reg_id lay dst) loc b idx (coh_get t.coh b idx)
        ~acq ~va
        (readable mem t loc b ~floor)
  | Interp.Write { loc; value = v; ord; va; vd } ->
      let b = base_id lay (Loc.base loc) and idx = loc.Loc.index in
      let release = ord = Instr.Release || ord = Instr.Acq_rel in
      (* append a fresh message at the end of memory... *)
      let append =
        let ts = next_ts in
        let m = { mloc = loc; mbase = b; mval = v; ts; wtid = i } in
        let lbl =
          if fp then
            access_fp i ~disc:0 ~alloc:true ~reads:[] ~writes:[ loc ]
              ~cert_read:[] ~cert_write:[ Loc.base loc ]
          else dummy_fp
        in
        (wrote t rest b idx ~release ts t.promises, Some m, lbl)
      in
      (* ... or fulfil one of our promises *)
      append
      ::
      (match t.promises with
      | [] -> []
      | promises ->
          let lower =
            Int.max (coh_get t.coh b idx)
              (Int.max va (Int.max vd (Int.max t.vctrl t.vwnew)))
          in
          fulfil_steps ~fp mem i t rest loc b idx v ~lower ~release promises)
  | Interp.Rmw { dst; loc; op; ord; va; vd } ->
      rmw_step ~fp lay ~mem ~next_ts ~others i t rest ~loc ~va ~vd ~ord ~dst
        ~op

(* The whole state after thread [i]'s thread-local successor at [st]. *)
let whole st i (t', m, _) =
  set_thread (match m with None -> st | Some m -> append st m) i t'

(** Thread [i]'s thread-local successors at [st].
    @raise Interp.Thread_panic when the thread panics.
    @raise Interp.Out_of_fuel when a loop has no fuel left. *)
let step_thread ~fp ~silent_ok ~obs lay (st : state) (i : int) =
  let t = st.threads.(i) in
  apply ~fp ~silent_ok ~obs lay ~mem:st.mem ~next_ts:st.next_ts
    ~others:st.threads i t (request lay t)

(* Human-readable label for thread [i]'s request [req], taken from [st]
   to [st']. Loads/stores are annotated with the concrete location,
   value, and message timestamp so witness schedules read like the
   paper's execution diagrams. *)
let describe_step lay (st : state) (st' : state) (i : int)
    (req : Interp.request) : string =
  let t = st.threads.(i) and t' = st'.threads.(i) in
  let read dst = fst (lookup lay t'.regs dst) in
  match req with
  | Interp.Read { dst; loc; ord; _ } ->
      Format.asprintf "%s := [%a]  (reads %d%s)" (Reg.name dst) Loc.pp loc
        (read dst)
        (match ord with Instr.Acquire -> ", acquire" | _ -> "")
  | Interp.Write { loc; value; ord; _ } ->
      Format.asprintf "[%a] := %d%s%s" Loc.pp loc value
        (match ord with Instr.Release -> "  (release)" | _ -> "")
        (if List.exists (fun p -> not (List.mem p t'.promises)) t.promises
         then "  (fulfils an earlier promise)"
         else "")
  | Interp.Rmw { dst; loc; op; _ } ->
      Format.asprintf "%s [%a] (read %d)"
        (match op with
        | Interp.Add _ -> "fetch-add"
        | Interp.Swap _ -> "exchange"
        | Interp.Cas _ -> "cas")
        Loc.pp loc (read dst)
  | Interp.Fence b -> (
      match b with
      | Instr.Dmb_full -> "dmb ish"
      | Instr.Dmb_ld -> "dmb ishld"
      | Instr.Dmb_st -> "dmb ishst"
      | Instr.Isb -> "isb")
  | Interp.Assign { dst; _ } -> Format.asprintf "%s := <expr>" (Reg.name dst)
  | Interp.Local _ -> (
      (* a local step does not say which instruction it came from; only
         the witness text needs to *)
      match Cont.head t.code with
      | Instr.If _ -> "branch"
      | Instr.While _ -> "loop check"
      | _ -> "nop")
  | Interp.Pull bs -> Format.asprintf "pull {%s}" (String.concat "," bs)
  | Interp.Push bs -> Format.asprintf "push {%s}" (String.concat "," bs)
  | Interp.Tlbi _ -> "tlbi"

(* ------------------------------------------------------------------ *)
(* State keys                                                          *)
(* ------------------------------------------------------------------ *)
(* The full-state key composes the memory key with the memoised thread
   keys. *)

let hash_mem h (st : state) =
  Statekey.int h st.next_ts;
  Statekey.absorb h st.mkey

let state_key (st : state) : Statekey.t =
  let h = Statekey.fresh () in
  hash_mem h st;
  for i = 0 to Array.length st.threads - 1 do
    Statekey.absorb h (thread_key_memo st i)
  done;
  Statekey.finish h

(* Orbit-canonical key. Unlike SC/TSO, part of a Promising thread's
   identity lives in {e shared} memory: messages carry the writer's
   thread index [wtid]. Permuting threads i and j maps a state to one
   where their local states are swapped {e and} every [wtid = i]
   becomes [j] (and vice versa), so canonicalization must do the same:

   - the per-thread sub-key covers the thread's local state {e plus}
     the (loc, val, ts) triples of the messages it wrote — two threads
     with identical views but different written-message histories are
     distinguishable (a later promise by one of them certifies
     differently) and must not collapse;
   - the canonical hash relabels each message's [wtid] through the
     orbit rank and hashes threads in orbit order, so both sides of the
     ownership relation are permuted consistently.

   Timestamps themselves are global (positions in the append-only
   memory) and permutation-invariant — they are never remapped. *)
let canonical_key sym (st : state) : Statekey.t =
  let n = Array.length st.threads in
  let sub =
    Array.init n (fun i ->
        let h = Statekey.fresh () in
        Statekey.absorb h (thread_key_memo st i);
        List.iter
          (fun m ->
            if m.wtid = i then begin
              Statekey.int h m.mbase;
              Statekey.int h m.mloc.Loc.index;
              Statekey.int h m.mval;
              Statekey.int h m.ts
            end)
          st.mem;
        Statekey.finish h)
  in
  let ord = Symmetry.order sym sub in
  let rank = Symmetry.inverse ord in
  let h = Statekey.fresh () in
  Statekey.int h st.next_ts;
  List.iter
    (fun m ->
      Statekey.int h m.mbase;
      Statekey.int h m.mloc.Loc.index;
      Statekey.int h m.mval;
      Statekey.int h m.ts;
      Statekey.int h (if m.wtid < 0 then m.wtid else rank.(m.wtid)))
    st.mem;
  Array.iter (fun i -> Statekey.absorb h sub.(i)) ord;
  Statekey.finish h

(* ------------------------------------------------------------------ *)
(* Certification and promise candidates                                *)
(* ------------------------------------------------------------------ *)
(* A solo run steps one thread against memory and nothing else: the
   other threads stand still, so all it needs of them is which
   timestamps they have promised, read from the state's thread array,
   which the run never changes.
   Each solo step is one {!apply}, its successors kept as a thread, a
   memory and a timestamp counter, with no thread arrays copied and no
   keys folded. *)

type solo = { thread : tstate; mem : message list; next_ts : int }

let solo_of (st : state) i =
  { thread = st.threads.(i); mem = st.mem; next_ts = st.next_ts }

(* The request the thread makes next, or [None] where a solo run ends:
   the thread is done, panics or has run out of fuel. *)
let solo_request lay s =
  if Cont.is_empty s.thread.code then None
  else
    match request lay s.thread with
    | req -> Some req
    | exception (Interp.Thread_panic | Interp.Out_of_fuel) -> None

(* Thread [i]'s steps for request [req] in solo run [s] (a solo run
   never promises), each made a run by {!solo_next}. *)
let solo_apply lay ~others i s req =
  apply ~fp:false ~silent_ok:false ~obs:any_reg lay ~mem:s.mem
    ~next_ts:s.next_ts ~others i s.thread req

let solo_next s (thread, m, _) =
  match m with
  | None -> { s with thread }
  | Some m -> { thread; mem = m :: s.mem; next_ts = m.ts + 1 }

(* The ids of the base names [bases]. *)
let rec base_ids lay = function
  | [] -> []
  | b :: bs -> base_id lay b :: base_ids lay bs

(* Is thread [i]'s promise at [p] on one of the bases [bases]? *)
let fulfillable mem i bases p =
  match own_message mem i p with
  | Some m -> mem_int m.mbase bases
  | None -> false

(** Can thread [i], running solo (no new promises), reach a state with all
    its promises fulfilled, within [depth] steps?

    Promises are fulfilled by [Store] only, hence a promise on a base
    outside the code's store bases can never be fulfilled. The prune is
    verdict-preserving — it only skips solo searches whose outcome is
    already forced. *)
let certifiable cfg lay st i =
  let t0 = st.threads.(i) in
  match t0.promises with
  | [] -> true
  | promises ->
      let bases = base_ids lay (Cont.stores t0.code) in
      List.for_all (fulfillable st.mem i bases) promises
      &&
      let others = st.threads in
      let rec go s depth =
        no_promises s.thread
        || depth > 0
           &&
           match solo_request lay s with
           | None -> false
           | Some req -> any s (depth - 1) (solo_apply lay ~others i s req)
      and any s depth = function
        | [] -> false
        | succ :: succs -> go (solo_next s succ) depth || any s depth succs
      in
      go (solo_of st i) cfg.cert_depth

(* Candidate triples in (base id, index, value) order. *)
let compare_candidate (b, i, v) (b', i', v') =
  let c = Int.compare b b' in
  if c <> 0 then c
  else
    let c = Int.compare i i' in
    if c <> 0 then c else Int.compare v v'

(** Store values thread [i] may produce along some solo run of at most
    [cfg.cert_depth] steps from [s], while the threads [others] hold
    their promises: the candidate set for promises, as (base id, index,
    value) triples, sorted and without duplicates. Base ids follow base
    names, so the triples sort as the (location, value) pairs they stand
    for. Over-approximate; certification filters.

    Every solo path is walked, with no table of states already seen.
    None would pay: a solo run's coherence entries and views only grow,
    so two paths almost never meet in one state, and over every pinned
    program none did. And a table that ignores depth is inexact: a state
    first met with less depth left would hide the stores a later visit
    with more depth left can still reach, which [certifiable] (no table
    either) accepts. *)
let write_candidates cfg lay ~others i s =
  let found = ref [] in
  let rec go s depth =
    if depth > 0 then
      match solo_request lay s with
      | None -> ()
      | Some req ->
          (match req with
          | Interp.Write { loc; value; _ } ->
              found :=
                (base_id lay (Loc.base loc), loc.Loc.index, value) :: !found
          | _ -> ());
          all s (depth - 1) (solo_apply lay ~others i s req)
  and all s depth = function
    | [] -> ()
    | succ :: succs ->
        go (solo_next s succ) depth;
        all s depth succs
  in
  go s cfg.cert_depth;
  List.sort_uniq compare_candidate !found

(* ------------------------------------------------------------------ *)
(* Certification memoization                                           *)
(* ------------------------------------------------------------------ *)

(* the number of messages of [mem] on the bases [bases] *)
let rec count_on bases n = function
  | [] -> n
  | m :: mem -> count_on bases (if mem_int m.mbase bases then n + 1 else n) mem

(* the timestamps of the messages of [mem] on the bases [bases] into
   [ranks.(k)], [ranks.(k - 1)], ... *)
let rec fill_ts (ranks : int array) bases k = function
  | [] -> ()
  | m :: mem ->
      if mem_int m.mbase bases then begin
        ranks.(k) <- m.ts;
        fill_ts ranks bases (k - 1) mem
      end
      else fill_ts ranks bases k mem

(* the index of [v] in the sorted [ranks.(lo .. hi)] *)
let rec rank_in (ranks : int array) v lo hi =
  let mid = (lo + hi) / 2 in
  let x = ranks.(mid) in
  if x = v then mid
  else if x < v then rank_in ranks v (mid + 1) hi
  else rank_in ranks v lo (mid - 1)

(* insertion sort of [a.(lo .. hi - 1)], in place: linear on a slice
   that is sorted but for a few elements *)
let sort_range (a : int array) lo hi =
  for j = lo + 1 to hi - 1 do
    let v = a.(j) in
    let k = ref (j - 1) in
    while !k >= lo && a.(!k) > v do
      a.(!k + 1) <- a.(!k);
      decr k
    done;
    a.(!k + 1) <- v
  done

let rec fill_list (a : int array) k = function
  | [] -> ()
  | v :: l ->
      a.(k) <- v;
      fill_list a (k + 1) l

(* [f k] for every slot [k] of a certification key's projection [p]
   (laid out by {!cert_key}) that holds a timestamp: the written
   registers' views, the coherence entries', the seven views and the
   promises *)
let iter_ts_slots (p : int array) ~nregs ~fp_coh ~np f =
  for r = 0 to nregs - 1 do
    if p.(2 + (2 * r)) <> unwritten then f (2 + (2 * r))
  done;
  let c = 2 + (2 * nregs) in
  for j = 0 to fp_coh - 1 do
    f (c + (3 * j) + 2)
  done;
  let v = c + (3 * fp_coh) in
  for k = v to v + 6 do
    f k
  done;
  for k = v + 8 to v + 7 + np do
    f k
  done

(* The memo key is a {e canonical projection} of the state onto what a
   solo run of thread [i] can observe. [certifiable]'s verdict is
   invariant under four quotients, and the key hashes the quotient class
   rather than the raw state so every member shares one cache slot:

   - {b footprint}: the solo run only evaluates addresses on the static
     bases of thread [i]'s remaining code, so messages (and coherence
     entries) on other bases are dropped;
   - {b timestamp renaming}: the semantics compares timestamps only by
     order ([<=]/[max]) and fresh timestamps are allocated above every
     existing one, so each timestamp is replaced by its rank within the
     set of timestamps the run can compare (footprint messages, views,
     register views, coherence entries, promises);
   - {b promise ownership}: {!rmw_step} refuses the coherence-latest
     message when {e some} thread holds it as a promise, never caring
     which — other threads collapse to one promised-by-other bit per
     footprint message;
   - {b thread identity}: fulfillment only tests [m.wtid = i], hashed as
     a mine/theirs bit, so structurally equal certification problems on
     different threads share a slot.

   [next_ts] and [promise_budget] are excluded: a solo run never
   promises, and fresh timestamps sit above every ranked one in any
   member of the class. Locations are hashed as (base id, index) pairs
   of the exploration's layout, which every state of it shares. *)
let cert_key lay (st : state) i : Statekey.t =
  let t = st.threads.(i) in
  let bases = base_ids lay (Cont.accesses t.code) in
  let nregs = Array.length t.regs / 2 and n_coh = Array.length t.coh / 3 in
  let np = List.length t.promises in
  let fp_coh = ref 0 in
  for k = 0 to n_coh - 1 do
    if mem_int t.coh.(3 * k) bases then incr fp_coh
  done;
  let fp_coh = !fp_coh in
  (* The projection of the thread, in key order, timestamps first
     raw: fuel; a (value, view) pair per register, view [unwritten]
     when not written; the number of coherence entries on the
     footprint, then their (base id, index, timestamp) triples; the
     seven views; the number of promises, then the promises. *)
  let p = Array.make (10 + (2 * nregs) + (3 * fp_coh) + np) 0 in
  p.(0) <- t.fuel;
  Array.blit t.regs 0 p 1 (2 * nregs);
  let c = 1 + (2 * nregs) in
  p.(c) <- fp_coh;
  let k = ref (c + 1) in
  for j = 0 to n_coh - 1 do
    if mem_int t.coh.(3 * j) bases then begin
      Array.blit t.coh (3 * j) p !k 3;
      k := !k + 3
    end
  done;
  let v = !k in
  p.(v) <- t.vrnew;
  p.(v + 1) <- t.vwnew;
  p.(v + 2) <- t.vctrl;
  p.(v + 3) <- t.vrmax;
  p.(v + 4) <- t.vwmax;
  p.(v + 5) <- t.vall;
  p.(v + 6) <- t.vrel;
  p.(v + 7) <- np;
  fill_list p (v + 8) t.promises;
  (* Rank table: every comparable timestamp in one int array, sorted in
     place and deduplicated; a timestamp's rank is its index, found by
     binary search. Slot 0 holds 0, which is always a member. The
     footprint messages' timestamps fill slots 1.. in ascending order
     (memory is newest first), the projection's follow. *)
  let nm = count_on bases 0 st.mem in
  let ranks = Array.make (8 + nm + nregs + fp_coh + np) 0 in
  fill_ts ranks bases nm st.mem;
  let n = ref (nm + 1) in
  iter_ts_slots p ~nregs ~fp_coh ~np (fun k ->
      ranks.(!n) <- p.(k);
      incr n);
  (* only the few timestamps from the projection move *)
  sort_range ranks 0 !n;
  let len = ref 1 in
  for j = 1 to !n - 1 do
    if ranks.(j) <> ranks.(!len - 1) then begin
      ranks.(!len) <- ranks.(j);
      incr len
    end
  done;
  let hi = !len - 1 in
  iter_ts_slots p ~nregs ~fp_coh ~np (fun k ->
      p.(k) <- rank_in ranks p.(k) 0 hi);
  sort_range p (v + 8) (v + 8 + np);
  let h = Statekey.fresh () in
  Statekey.char h 'C';
  Statekey.absorb h (Cont.key t.code);
  Statekey.ints h p;
  Statekey.char h 'M';
  (* per footprint message: base id, index, value, rank, whether thread
     [i] wrote it, whether another thread holds it as a promise *)
  let m6 = Array.make 6 0 in
  List.iter
    (fun m ->
      if mem_int m.mbase bases then begin
        m6.(0) <- m.mbase;
        m6.(1) <- m.mloc.Loc.index;
        m6.(2) <- m.mval;
        m6.(3) <- rank_in ranks m.ts 0 hi;
        m6.(4) <- (if m.wtid = i then 1 else 0);
        m6.(5) <- (if promised_by_other st.threads i m.ts then 1 else 0);
        Statekey.ints h m6
      end)
    st.mem;
  Statekey.finish h

(* Per-exploration verdict cache. Values: 0 = slot reserved but not yet
   computed (another domain may recompute — duplicated work, never a
   wrong answer), 1 = not certifiable, 2 = certifiable. Mutex-guarded:
   the cache lives in the model context, which parallel exploration
   shares across domains. Call/hit counters are [Atomic] so the run
   wrappers can fold them into {!Engine.stats} afterwards. *)
type cert_cache = {
  cc_lock : Mutex.t;
  cc_tbl : int Statekey.Table.t;
  cc_calls : int Atomic.t;
  cc_hits : int Atomic.t;
}

let make_cert_cache () =
  { cc_lock = Mutex.create ();
    cc_tbl = Statekey.Table.create ~dummy:0 ();
    cc_calls = Atomic.make 0;
    cc_hits = Atomic.make 0 }

(* Memoized entry point. Only full-budget queries land here (every
   caller asks with the uniform [cfg.cert_depth]), so the verdict is a
   function of the key alone. Promise-free states short-circuit without
   touching the cache — they are trivially certified and would only
   dilute the hit-rate statistic. *)
let certifiable_cached cache cfg lay st i =
  if no_promises st.threads.(i) then true
  else
    match cache with
    | None -> certifiable cfg lay st i
    | Some c -> (
        Atomic.incr c.cc_calls;
        let k = cert_key lay st i in
        Mutex.lock c.cc_lock;
        let prior =
          match Statekey.Table.find_or_add c.cc_tbl k 0 with
          | `Added -> 0
          | `Found v -> v
        in
        Mutex.unlock c.cc_lock;
        match prior with
        | 2 ->
            Atomic.incr c.cc_hits;
            true
        | 1 ->
            Atomic.incr c.cc_hits;
            false
        | _ ->
            let verdict = certifiable cfg lay st i in
            Mutex.lock c.cc_lock;
            Statekey.Table.update c.cc_tbl k (if verdict then 2 else 1);
            Mutex.unlock c.cc_lock;
            verdict)

(* ------------------------------------------------------------------ *)
(* Exhaustive exploration                                              *)
(* ------------------------------------------------------------------ *)

let initial_state cfg lay (prog : Prog.t) : state =
  let mem =
    List.map
      (fun (l, v) ->
        { mloc = l; mbase = base_id lay (Loc.base l); mval = v; ts = 0;
          wtid = -1 })
      prog.Prog.init
  in
  (* every slot's view [unwritten]; arrays are copied on every update,
     so all threads can start from one *)
  let regs =
    Array.init
      (2 * Array.length lay.regs.sorted)
      (fun k -> if k land 1 = 1 then unwritten else 0)
  in
  let threads =
    Array.of_list
      (List.map
         (fun th ->
           { code = Cont.of_list th.Prog.code;
             regs;
             coh = [||];
             vrnew = 0;
             vwnew = 0;
             vctrl = 0;
             vrmax = 0;
             vwmax = 0;
             vall = 0;
             vrel = 0;
             fuel = cfg.loop_fuel;
             promise_budget = cfg.max_promises;
             promises = [] })
         prog.Prog.threads)
  in
  { mem;
    mkey = mem_key mem;
    next_ts = 1;
    threads;
    tkeys = Array.make (Array.length threads) unkeyed }

let observe (prog : Prog.t) lay (st : state) status : Behavior.outcome =
  Behavior.observe prog
    ~reg:(fun i r -> fst (lookup lay st.threads.(i).regs r))
    ~loc:(fun l ->
      (* value of the coherence-final message on l, the newest one *)
      let b = base_id lay (Loc.base l) in
      match List.find_opt (fun m -> m.ts > 0 && on m b l.Loc.index) st.mem with
      | Some m -> m.mval
      | None -> Prog.init_value prog l)
    status

(* The executor is an instance of the shared exploration engine. Per
   runnable thread, the expansion offers the architectural steps (several
   for a load: one per readable message) followed by the certified promise
   steps; terminal states record an outcome only when every promise has
   been fulfilled; under [strict_certification] uncertifiable states are
   pruned. Every thread's promise candidates are certified when the
   state is expanded, before any successor is explored: when a state
   budget or deadline stops the search part-way, certification work for
   threads whose subtrees were never explored is already done, and
   counted.

   POR labels: every step carries a {!Porlabel} footprint. Promise and
   fulfil steps record the affected base in [cert_write] (they change the
   promise set other threads' RMW enabledness and certification verdicts
   consult), promise steps record the promising thread's whole
   access bases ({!Cont.accesses}) in [cert_read] (the candidate set and the
   certification verdict read that history), and both promise and
   append-store steps set [alloc] (they take the next global timestamp).
   A thread's architectural step may only claim the singleton-ample
   property when the thread cannot also promise ([silent_ok]); the
   engine's side conditions do the rest.

   Under [strict_certification] the POR oracle is {e unsound}: pruned
   mid-path states may be certification-dead ([Terminal None]), which
   breaks the commutation diamond (the explored order can die where the
   pruned order survives). The run wrappers force [por:false] there. *)
module Model = struct
  type ctx = {
    prog : Prog.t;
    cfg : config;
    lay : layout;  (** the program's register and base ids *)
    obs : int -> Reg.t -> bool;
        (** [obs i r]: can observation see thread [i]'s register [r]? *)
    cache : cert_cache option;
        (** certification memo, shared across domains (internally
            mutex-guarded); [None] when [cfg.cert_cache] is off *)
    sym : Symmetry.t option;
        (** thread-symmetry structure for orbit-canonical keys; [None]
            when disabled, no groups exist, or [strict_certification]
            forces exact keying (mirroring the POR valve) *)
  }

  type nonrec state = state

  let sym ctx = ctx.sym

  let key ctx st =
    match ctx.sym with
    | None -> state_key st
    | Some s -> canonical_key s st

  (* [succs], thread [i]'s thread-local successors at [st], as steps
     before [tail] *)
  let rec arch_steps (st : state) i succs tail =
    match succs with
    | [] -> tail
    | ((_, _, lbl) as succ) :: succs ->
        Engine.Step (lbl, whole st i succ) :: arch_steps st i succs tail

  (* Promise steps of thread [i] for the candidates [cands], the first
     numbered [idx], each kept only when the thread can still certify,
     before [tail]. Candidates are sorted, so the label discriminator
     (index) is stable across independent other-thread moves. *)
  let rec promise_steps ctx (st : state) i t ~cert_read idx cands tail =
    match cands with
    | [] -> tail
    | (b, index, v) :: cands ->
        let ts = st.next_ts in
        let loc = Loc.v ~index ctx.lay.bases.sorted.(b) in
        let m = { mloc = loc; mbase = b; mval = v; ts; wtid = i } in
        let t' =
          { t with
            promises = ts :: t.promises;
            promise_budget = t.promise_budget - 1 }
        in
        let st' = set_thread (append st m) i t' in
        if certifiable_cached ctx.cache ctx.cfg ctx.lay st' i then
          let fp =
            access_fp i ~disc:idx ~alloc:true ~reads:[] ~writes:[ loc ]
              ~cert_read ~cert_write:[ Loc.base loc ]
          in
          Engine.Step (fp, st')
          :: promise_steps ctx st i t ~cert_read (idx + 1) cands tail
        else promise_steps ctx st i t ~cert_read (idx + 1) cands tail

  (* Thread [i]'s steps at [st] before [tail]: its architectural steps,
     then its promise steps, candidates from a solo run. *)
  let thread_steps ({ prog; cfg; lay; obs; _ } as ctx) (st : state) i tail =
    let t = st.threads.(i) in
    if Cont.is_empty t.code then tail
    else
      (* can this thread take a promise step here? (cheap syntactic
         over-approximation: budget left and a store in its code) *)
      let may_promise =
        t.promise_budget > 0
        && match Cont.stores t.code with [] -> false | _ :: _ -> true
      in
      let tail =
        if not may_promise then tail
        else
          let cands =
            write_candidates cfg lay ~others:st.threads i (solo_of st i)
          in
          promise_steps ctx st i t ~cert_read:(Cont.accesses t.code) 0 cands
            tail
      in
      match
        step_thread ~fp:true ~silent_ok:(not may_promise) ~obs lay st i
      with
      | succs -> arch_steps st i succs tail
      | exception Interp.Out_of_fuel ->
          Engine.Emit (observe prog lay st Behavior.Fuel_exhausted) :: tail
      | exception Interp.Thread_panic ->
          Engine.Emit (observe prog lay st Behavior.Panicked) :: tail

  (* Labels are footprints alone: their [disc] fields keep the labels of
     one thread's enabled transitions distinct (engine requirement),
     which is also what lets {!render_witness} replay a recorded path. *)
  let expand ({ prog; cfg; lay; cache; _ } as ctx) (st : state) :
      (state, Porlabel.t) Engine.expansion =
    let n = Array.length st.threads in
    let certified_everywhere =
      (not cfg.strict_certification)
      || Array.for_all no_promises st.threads
      ||
      let ok = ref true in
      for i = 0 to n - 1 do
        if (not (no_promises st.threads.(i)))
           && not (certifiable_cached cache cfg lay st i)
        then ok := false
      done;
      !ok
    in
    if not certified_everywhere then Engine.Terminal None
    else if Array.for_all (fun t -> Cont.is_empty t.code) st.threads then
      if Array.for_all no_promises st.threads then
        Engine.Terminal (Some (observe prog lay st Behavior.Normal))
      else Engine.Terminal None
    else
      let steps = ref [] in
      for i = n - 1 downto 0 do
        steps := thread_steps ctx st i !steps
      done;
      Engine.Steps !steps
end

module E = Engine.Make (Model)

let make_ctx ?(sym = true) prog cfg =
  { Model.prog;
    cfg;
    lay = layout_of prog;
    obs = Prog.observable_reg prog;
    cache = (if cfg.cert_cache then Some (make_cert_cache ()) else None);
    (* Symmetry mirrors the POR valve: under strict certification the
       engine prunes certification-dead states mid-path, and an orbit
       representative may die where its permuted twin's concrete path
       would have survived a different certification-check order — keep
       exact keys there. *)
    sym =
      (if sym && not cfg.strict_certification then Symmetry.detect prog
       else None) }

(* Witness text is rendered after the search, not on every transition:
   the engine records each witness as its footprint path, replayed here
   from the initial state. At each step the successor whose footprint
   equals the recorded one is the step taken — footprints are unique
   among a state's enabled transitions — and only then is the step
   described. A step that adds a promise is a promise step; its message
   heads the successor's memory. *)
let render_witness (ctx : Model.ctx) init path =
  let tids =
    Array.of_list
      (List.map (fun th -> th.Prog.tid) ctx.Model.prog.Prog.threads)
  in
  let successor st fp =
    match Model.expand ctx st with
    | Engine.Steps steps ->
        List.find_map
          (function
            | Engine.Step (l, st') when Porlabel.equal l fp -> Some st'
            | Engine.Step _ | Engine.Emit _ -> None)
          steps
    | Engine.Terminal _ -> None
  in
  let rec go st acc = function
    | [] -> List.rev acc
    | fp :: path -> (
        match successor st fp with
        | None -> invalid_arg "Promising.render_witness: path does not replay"
        | Some st' ->
            let i = fp.Porlabel.tid in
            let t = st.threads.(i) and t' = st'.threads.(i) in
            let s_what =
              if List.length t'.promises > List.length t.promises then
                let m = List.hd st'.mem in
                Format.asprintf "promises [%a] := %d" Loc.pp m.mloc m.mval
              else
                describe_step ctx.Model.lay st st' i
                  (request ctx.Model.lay t)
            in
            go st' ({ s_tid = tids.(i); s_what } :: acc) path)
  in
  go init [] path

(* POR is sound here only without strict certification: strict mode
   prunes mid-path states as [Terminal None], which breaks the sleep-set
   commutation diamond (see the Model comment). *)
let por_for cfg por =
  if cfg.strict_certification then Some false else por

(* Fold the context's certification counters into the engine's stats
   (the engine itself knows nothing about certification). *)
let with_cert_stats (ctx : Model.ctx) (s : Engine.stats) : Engine.stats =
  match ctx.Model.cache with
  | None -> s
  | Some c ->
      { s with
        Engine.cert_calls = Atomic.get c.cc_calls;
        cert_hits = Atomic.get c.cc_hits }

(** [run_full ?config ?jobs prog] explores all Promising Arm executions
    of [prog] and returns the behavior set, the per-outcome witness
    schedules, and the exploration statistics. [por] (default on)
    applies partial-order reduction — same behavior set, fewer states;
    it is forced off under [strict_certification] where it would be
    unsound. *)
let run_full ?(config = default_config) ?(jobs = 1) ?deadline ?por ?sym
    (prog : Prog.t) :
    Behavior.t * (Behavior.outcome * step list) list * Engine.stats =
  let ctx = make_ctx ?sym prog config in
  let init = initial_state config ctx.Model.lay prog in
  let r =
    E.explore ~max_states:config.max_states ?deadline
      ?por:(por_for config por) ~witnesses:true ~jobs ~ctx init
  in
  (* counters first: the replays below query the cert cache too *)
  let stats = with_cert_stats ctx r.E.stats in
  let witnesses =
    List.map (fun (o, path) -> (o, render_witness ctx init path)) r.E.witnesses
  in
  (r.E.behaviors, witnesses, stats)

(** [run_with_witnesses ?config ?jobs prog] explores all Promising Arm
    executions of [prog] and additionally returns, for each distinct
    outcome, the first schedule (sequence of per-CPU steps, including
    promises) that produced it. *)
let run_with_witnesses ?config ?jobs ?deadline ?por ?sym (prog : Prog.t) :
    Behavior.t * (Behavior.outcome * step list) list =
  let behaviors, witnesses, _ =
    run_full ?config ?jobs ?deadline ?por ?sym prog
  in
  (behaviors, witnesses)

(** [run_stats ?config ?jobs prog] explores all Promising Arm executions
    of [prog] and returns the behavior set with exploration statistics
    (witness bookkeeping off). *)
let run_stats ?(config = default_config) ?(jobs = 1) ?deadline ?por ?sym
    (prog : Prog.t) : Behavior.t * Engine.stats =
  let ctx = make_ctx ?sym prog config in
  let r =
    E.explore ~max_states:config.max_states ?deadline
      ?por:(por_for config por) ~jobs ~ctx
      (initial_state config ctx.Model.lay prog)
  in
  (r.E.behaviors, with_cert_stats ctx r.E.stats)

(** [run ?config ?jobs prog] explores all Promising Arm executions of
    [prog] (bounded by the configuration) and returns its behavior set. *)
let run ?config ?jobs ?deadline ?por ?sym (prog : Prog.t) : Behavior.t =
  fst (run_stats ?config ?jobs ?deadline ?por ?sym prog)

(* ------------------------------------------------------------------ *)
(* Promise candidates, exposed for the candidate tests                 *)
(* ------------------------------------------------------------------ *)

type probe = {
  initial : state;
  key : state -> Statekey.t;
  successors : state -> state list;
  step : state -> int -> ((Loc.t * int) option * state list) option;
  candidates : state -> int -> (Loc.t * int) list;
}

let probe ?(config = default_config) prog =
  let ctx = make_ctx ~sym:false prog config in
  let lay = ctx.Model.lay in
  let successors st =
    match Model.expand ctx st with
    | Engine.Terminal _ -> []
    | Engine.Steps steps ->
        List.filter_map
          (function Engine.Step (_, st') -> Some st' | Engine.Emit _ -> None)
          steps
  in
  let step st i =
    Option.map
      (fun req ->
        let written =
          match req with
          | Interp.Write { loc; value; _ } -> Some (loc, value)
          | _ -> None
        in
        ( written,
          List.map (whole st i)
            (step_thread ~fp:false ~silent_ok:false ~obs:any_reg lay st i) ))
      (solo_request lay (solo_of st i))
  in
  let candidates st i =
    List.map
      (fun (b, index, v) -> (Loc.v ~index lay.bases.sorted.(b), v))
      (write_candidates config lay ~others:st.threads i (solo_of st i))
  in
  { initial = initial_state config lay prog; key = state_key; successors; step;
    candidates }
