(** Model-generic exhaustive exploration engine. See the interface for
    the design, the partial-order-reduction soundness argument and the
    parallel-search determinism argument. *)

(* Bump on any change to exploration semantics: the verification cache
   keys every stored result on this string. vrm-engine/7: the Promising
   promise-candidate search walks every solo path; its old table of
   states seen ignored depth and dropped candidates on some programs, so
   their visited counts, and possibly their behavior sets, change.
   vrm-engine/6: thread-
   symmetry reduction (orbit-canonical state keys, context-aware
   MODEL.key) plus seen-set contention / allocation counters (the stats
   payload stored in cache entries changed shape again).
   vrm-engine/5: footprint labels on all four models, task-based
   frontier scheduler with tasks_spawned/tasks_stolen stats.
   vrm-engine/4: memoized promise certification with
   cert_calls/cert_hits stats. vrm-engine/3: hashed state interning,
   shared work-stealing parallel search, sleep-set POR. *)
let version = "vrm-engine/7"

type stats = {
  visited : int;
  dedup_hits : int;
  transitions : int;
  max_depth : int;
  outcomes : int;
  por_pruned : int;
  tasks_spawned : int;
  tasks_stolen : int;
  shared_hits : int;
  cert_calls : int;
  cert_hits : int;
  sym_groups : int;
  sym_collapsed : int;
  seen_stripes : int;
  stripe_occupancy : int;
  lock_waits : int;
  minor_words : int;
  wall_s : float;
  jobs : int;
  budget_hit : bool;
}

let zero_stats =
  { visited = 0;
    dedup_hits = 0;
    transitions = 0;
    max_depth = 0;
    outcomes = 0;
    por_pruned = 0;
    tasks_spawned = 0;
    tasks_stolen = 0;
    shared_hits = 0;
    cert_calls = 0;
    cert_hits = 0;
    sym_groups = 0;
    sym_collapsed = 0;
    seen_stripes = 0;
    stripe_occupancy = 0;
    lock_waits = 0;
    minor_words = 0;
    wall_s = 0.;
    jobs = 1;
    budget_hit = false }

let add_stats a b =
  { visited = a.visited + b.visited;
    dedup_hits = a.dedup_hits + b.dedup_hits;
    transitions = a.transitions + b.transitions;
    max_depth = max a.max_depth b.max_depth;
    outcomes = a.outcomes + b.outcomes;
    por_pruned = a.por_pruned + b.por_pruned;
    tasks_spawned = a.tasks_spawned + b.tasks_spawned;
    tasks_stolen = a.tasks_stolen + b.tasks_stolen;
    shared_hits = a.shared_hits + b.shared_hits;
    cert_calls = a.cert_calls + b.cert_calls;
    cert_hits = a.cert_hits + b.cert_hits;
    sym_groups = max a.sym_groups b.sym_groups;
    sym_collapsed = a.sym_collapsed + b.sym_collapsed;
    seen_stripes = max a.seen_stripes b.seen_stripes;
    stripe_occupancy = max a.stripe_occupancy b.stripe_occupancy;
    lock_waits = a.lock_waits + b.lock_waits;
    minor_words = a.minor_words + b.minor_words;
    wall_s = a.wall_s +. b.wall_s;
    jobs = max a.jobs b.jobs;
    budget_hit = a.budget_hit || b.budget_hit }

let pp_stats fmt s =
  Format.fprintf fmt
    "states=%d dedup=%d transitions=%d depth=%d outcomes=%d wall=%.2fms \
     jobs=%d%s%s%s%s%s%s%s%s%s%s"
    s.visited s.dedup_hits s.transitions s.max_depth s.outcomes
    (s.wall_s *. 1000.) s.jobs
    (if s.por_pruned > 0 then Printf.sprintf " por=%d" s.por_pruned else "")
    (if s.sym_groups > 0 then
       Printf.sprintf " sym=%d/%d" s.sym_groups s.sym_collapsed
     else "")
    (if s.tasks_spawned > 0 then Printf.sprintf " tasks=%d" s.tasks_spawned
     else "")
    (if s.tasks_stolen > 0 then Printf.sprintf " stolen=%d" s.tasks_stolen
     else "")
    (if s.shared_hits > 0 then Printf.sprintf " shared=%d" s.shared_hits
     else "")
    (if s.cert_calls > 0 then
       Printf.sprintf " cert=%d/%d" s.cert_hits s.cert_calls
     else "")
    (if s.jobs > 1 && s.seen_stripes > 0 then
       Printf.sprintf " stripes=%d/occ=%d" s.seen_stripes s.stripe_occupancy
     else "")
    (if s.lock_waits > 0 then Printf.sprintf " lockwait=%d" s.lock_waits
     else "")
    (if s.minor_words > 0 then
       Printf.sprintf " alloc=%.1fMw" (float_of_int s.minor_words /. 1e6)
     else "")
    (if s.budget_hit then " [budget hit]" else "")

type ('state, 'label) step =
  | Step of 'label * 'state
  | Emit of Behavior.outcome

type ('state, 'label) expansion =
  | Terminal of Behavior.outcome option
  | Steps of ('state, 'label) step list

module type MODEL = sig
  type ctx
  type state

  val sym : ctx -> Symmetry.t option
  val key : ctx -> state -> Statekey.t
  val expand : ctx -> state -> (state, Porlabel.t) expansion
end

module Make (M : MODEL) = struct
  type result = {
    behaviors : Behavior.t;
    witnesses : (Behavior.outcome * Porlabel.t list) list;
    stats : stats;
  }

  (* Mutable accumulator of one search (one domain's worth of work). *)
  type acc = {
    mutable behaviors : Behavior.t;
    wits : (Behavior.outcome, Porlabel.t list) Hashtbl.t;
    mutable visited : int;
    mutable dedup : int;
    mutable trans : int;
    mutable maxd : int;
    mutable pruned : int;
    mutable spawned : int;
    mutable stolen : int;
    mutable shared : int;
    mutable lockw : int;
    mutable mwords : int;
    mutable budget_hit : bool;
  }

  let new_acc () =
    { behaviors = Behavior.empty;
      wits = Hashtbl.create 64;
      visited = 0;
      dedup = 0;
      trans = 0;
      maxd = 0;
      pruned = 0;
      spawned = 0;
      stolen = 0;
      shared = 0;
      lockw = 0;
      mwords = 0;
      budget_hit = false }

  let record acc ~witnesses o path =
    if witnesses && not (Behavior.mem o acc.behaviors) then
      Hashtbl.replace acc.wits o (List.rev path);
    acc.behaviors <- Behavior.add o acc.behaviors

  exception Budget

  (* ---- sleep sets ----------------------------------------------- *)
  (* A sleep set is the list of labels whose transitions need not be
     explored from a state because an equivalent interleaving is covered
     through an already-explored sibling. Labels identify transitions
     structurally ({!Porlabel.equal}). *)

  let mem_lbl l zs = List.exists (Porlabel.equal l) zs
  let subset a b = List.for_all (fun x -> mem_lbl x b) a
  let inter a b = List.filter (fun x -> mem_lbl x b) a

  (* Seen-table entry: the domain that inserted it (for [shared_hits])
     and the sleep set the state was explored under. A revisit may be
     deduplicated only when the stored sleep set is a subset of the
     incoming one — the prior exploration then covered at least as many
     transitions. Otherwise the state is re-explored under the
     intersection (written back first), which shrinks monotonically, so
     re-exploration terminates. Without POR the stored sleep set is
     always [[]] and every revisit deduplicates, exactly as before. *)
  type seen_v = int * Porlabel.t list

  let dummy_seen : seen_v = (0, [])

  (* The entry domain [owner] stores for [sleep]; [empty] is the one it
     shares for every empty sleep set, so a search without POR, or a
     state reached with nothing asleep, allocates no entry. *)
  let seen_entry ~empty owner (sleep : Porlabel.t list) : seen_v =
    match sleep with [] -> empty | _ :: _ -> (owner, sleep)

  (* May a label enter a sleep set? Not a symmetric thread's: a sleep
     set is history, and under orbit canonicalization a revisit may
     arrive with its grouped threads permuted, where a literal label
     comparison against stored history would be wrong. Keeping only
     permutation-invariant labels makes the subset/intersection checks
     at dedup exact. Filtering is always sound — a smaller sleep set
     only means less pruning. *)
  let sleepable sym (l : Porlabel.t) =
    match sym with
    | None -> true
    | Some s -> not (Symmetry.grouped s l.Porlabel.tid)

  (* Expand one state and dispatch its successors through [child]
     (direct recursion when sequential, deque pushes when parallel).
     Without POR every transition is taken, in list order. Under POR
     the [Emit]s are recorded first (never pruned), then one ample step
     or the sleep-set walk dispatches the [Step]s. *)
  let expand_state ~ctx ~witnesses ~por ~sym acc st path depth sleep
      ~child =
    let take l st' sleep' =
      acc.trans <- acc.trans + 1;
      child st' (if witnesses then l :: path else path) (depth + 1) sleep'
    in
    let emit o =
      acc.trans <- acc.trans + 1;
      record acc ~witnesses o path
    in
    match M.expand ctx st with
    | Terminal (Some o) -> record acc ~witnesses o path
    | Terminal None -> ()
    | Steps steps when not por ->
        List.iter
          (function Emit o -> emit o | Step (l, st') -> take l st' [])
          steps
    | Steps steps -> (
        let n_steps =
          List.fold_left
            (fun n -> function
              | Emit o ->
                  emit o;
                  n
              | Step _ -> n + 1)
            0 steps
        in
        (* Singleton-ample reduction: an [ample] transition is
           invisible, its thread's unique transition, and commutes
           with every other thread's — so exploring it alone covers
           every interleaving of the siblings (see the interface for
           the soundness argument). *)
        let amp =
          List.find_map
            (function
              | Step (l, st') when Porlabel.ample l && not (mem_lbl l sleep)
                ->
                  Some (l, st')
              | Step _ | Emit _ -> None)
            steps
        in
        match amp with
        | Some (l, st') ->
            acc.pruned <- acc.pruned + (n_steps - 1);
            take l st' (List.filter (fun z -> Porlabel.independent z l) sleep)
        | None ->
            (* Sleep-set exploration: sibling [i]'s subtree may skip
               any earlier sibling [j < i] independent of [i] — the
               [j]-then-[i] interleavings are covered inside [j]'s
               subtree, which explored [i] (not sleeping there). *)
            let sleeping = ref sleep in
            List.iter
              (function
                | Emit _ -> ()
                | Step (l, st') ->
                    if mem_lbl l !sleeping then acc.pruned <- acc.pruned + 1
                    else begin
                      take l st'
                        (List.filter
                           (fun z -> Porlabel.independent z l)
                           !sleeping);
                      if sleepable sym l then sleeping := l :: !sleeping
                    end)
              steps)

  (* Depth-first search from each root, with a private seen-set. Roots
     carry the (reversed) label path and depth that led to them, so a
     parallel bucket reports witnesses with their full schedule. *)
  let dfs ~ctx ~witnesses ~max_states ~deadline ~por ~sym ~seen acc roots =
    let check_deadline () =
      match deadline with
      | Some d when Unix.gettimeofday () > d ->
          acc.budget_hit <- true;
          raise Budget
      | _ -> ()
    in
    let rec go st path depth sleep =
      let key = M.key ctx st in
      match
        Statekey.Table.find_or_add seen key
          (seen_entry ~empty:dummy_seen 0 sleep)
      with
      | `Found (_, old_sleep) ->
          if (not por) || subset old_sleep sleep then
            acc.dedup <- acc.dedup + 1
          else begin
            (* weaker sleep set: re-explore under the intersection *)
            let z = inter old_sleep sleep in
            Statekey.Table.update seen key (seen_entry ~empty:dummy_seen 0 z);
            check_deadline ();
            expand_state ~ctx ~witnesses ~por ~sym acc st path depth
              z ~child:go
          end
      | `Added ->
          acc.visited <- acc.visited + 1;
          if depth > acc.maxd then acc.maxd <- depth;
          (match max_states with
          | Some b when acc.visited > b ->
              acc.budget_hit <- true;
              raise Budget
          | _ -> ());
          check_deadline ();
          expand_state ~ctx ~witnesses ~por ~sym acc st path depth
            sleep ~child:go
    in
    try List.iter (fun (st, path, depth) -> go st path depth []) roots
    with Budget -> ()

  let finish ~t0 ~jobs accs =
    let behaviors =
      List.fold_left
        (fun b (a : acc) -> Behavior.union b a.behaviors)
        Behavior.empty accs
    in
    (* first recorded witness per outcome, earliest accumulator wins *)
    let wits = Hashtbl.create 64 in
    List.iter
      (fun (a : acc) ->
        Hashtbl.iter
          (fun o p -> if not (Hashtbl.mem wits o) then Hashtbl.add wits o p)
          a.wits)
      accs;
    let stats =
      List.fold_left
        (fun (s : stats) (a : acc) ->
          { s with
            visited = s.visited + a.visited;
            dedup_hits = s.dedup_hits + a.dedup;
            transitions = s.transitions + a.trans;
            max_depth = max s.max_depth a.maxd;
            por_pruned = s.por_pruned + a.pruned;
            tasks_spawned = s.tasks_spawned + a.spawned;
            tasks_stolen = s.tasks_stolen + a.stolen;
            shared_hits = s.shared_hits + a.shared;
            lock_waits = s.lock_waits + a.lockw;
            minor_words = s.minor_words + a.mwords;
            budget_hit = s.budget_hit || a.budget_hit })
        zero_stats accs
    in
    { behaviors;
      witnesses = Hashtbl.fold (fun o p l -> (o, p) :: l) wits [];
      stats =
        { stats with
          outcomes = Behavior.cardinal behaviors;
          wall_s = Unix.gettimeofday () -. t0;
          jobs } }

  (* ---- task-based frontier scheduler ---------------------------- *)
  (* A frame is one state awaiting expansion, with the (reversed) label
     path and depth that led to it and the sleep set it must be explored
     under. A {e task} is a frame published to the shared deque pool: it
     roots a subtree that any domain may claim. Frames whose depth is
     not a multiple of the task cut stay on the owning worker's private
     stack and never touch a lock (beyond the seen-set shard), so the
     per-frame synchronization cost of the old work-stealing search is
     paid once per [task_cut] levels instead of once per state. *)

  type frame = {
    f_st : M.state;
    f_path : Porlabel.t list;
    f_depth : int;
    f_sleep : Porlabel.t list;
  }

  (* Per-domain deque: the owner pushes/pops at the back (LIFO keeps the
     frontier depth-first and small), thieves take from the front
     (oldest frames root the largest subtrees). Mutex-guarded; the
     two-list representation makes every operation O(1) amortized. *)
  module Dq = struct
    type t = {
      lock : Mutex.t;
      mutable back : frame list;  (* owner end, newest first *)
      mutable front : frame list;  (* steal end, oldest first *)
    }

    let create () = { lock = Mutex.create (); back = []; front = [] }

    let push t f =
      Mutex.lock t.lock;
      t.back <- f :: t.back;
      Mutex.unlock t.lock

    let pop t =
      Mutex.lock t.lock;
      let r =
        match t.back with
        | f :: rest ->
            t.back <- rest;
            Some f
        | [] -> (
            match t.front with
            | f :: rest ->
                t.front <- rest;
                Some f
            | [] -> None)
      in
      Mutex.unlock t.lock;
      r

    let steal t =
      Mutex.lock t.lock;
      let r =
        match t.front with
        | f :: rest ->
            t.front <- rest;
            Some f
        | [] -> (
            match List.rev t.back with
            | f :: rest ->
                t.back <- [];
                t.front <- rest;
                Some f
            | [] -> None)
      in
      Mutex.unlock t.lock;
      r
  end

  let nshards = 64
  let default_task_cut = 8

  let explore_tasks ~max_states ~deadline ~witnesses ~jobs ~task_cut ~por
      ~sym ~ctx init t0 =
    let cut = max 1 task_cut in
    (* Striped shared seen-set: shard selected by high key bits (the
       tables themselves probe on low bits). *)
    let shards =
      Array.init nshards (fun _ ->
          (Mutex.create (), Statekey.Table.create ~dummy:dummy_seen ()))
    in
    let visited_g = Atomic.make 0 in
    let stop = Atomic.make false in
    let budget_flag = Atomic.make false in
    let failure : exn option Atomic.t = Atomic.make None in
    (* Count of shared tasks alive (published, not yet fully processed —
       a task is done only when the local stack it seeds has drained).
       Child tasks are published before their parent task's count is
       released, so [pending] can only reach 0 when the whole reachable
       space is done. Local frames are invisible to [pending]: they
       cannot outlive the task that owns them. *)
    let pending = Atomic.make 1 in
    let deques = Array.init jobs (fun _ -> Dq.create ()) in
    Dq.push deques.(0) { f_st = init; f_path = []; f_depth = 0; f_sleep = [] };
    let worker me =
      let acc = new_acc () in
      let empty = (me, []) in
      (* Gc counters are per-domain in OCaml 5: the delta below is this
         worker's own allocation, summed into [minor_words] at join. *)
      let mw0 = Gc.minor_words () in
      let dq = deques.(me) in
      (* Private frame stack: the task being processed plus every
         descendant below the next depth cut. LIFO keeps it depth-first
         and small. *)
      let local : frame list ref = ref [] in
      let process fr =
        if not (Atomic.get stop) then begin
          let key = M.key ctx fr.f_st in
          (* Stripe selection reads the key hash only — never the table
             capacity — so a stripe's table doubling cannot migrate keys
             between stripes (pinned by the stripe-stability test). *)
          let mx, tbl = shards.((Statekey.hash key lsr 48) land (nshards - 1)) in
          (* try_lock first purely to count contention: a miss means
             another domain held this stripe right now. *)
          if not (Mutex.try_lock mx) then begin
            acc.lockw <- acc.lockw + 1;
            Mutex.lock mx
          end;
          let verdict =
            match
              Statekey.Table.find_or_add tbl key
                (seen_entry ~empty me fr.f_sleep)
            with
            | `Added -> `Fresh
            | `Found (owner, old_sleep) ->
                if (not por) || subset old_sleep fr.f_sleep then `Dup owner
                else begin
                  let z = inter old_sleep fr.f_sleep in
                  Statekey.Table.update tbl key (seen_entry ~empty me z);
                  `Again z
                end
          in
          Mutex.unlock mx;
          match verdict with
          | `Dup owner ->
              acc.dedup <- acc.dedup + 1;
              if owner <> me then acc.shared <- acc.shared + 1
          | (`Fresh | `Again _) as v ->
              let sleep =
                match v with `Again z -> z | `Fresh -> fr.f_sleep
              in
              let proceed =
                match v with
                | `Again _ -> true
                | `Fresh -> (
                    acc.visited <- acc.visited + 1;
                    if fr.f_depth > acc.maxd then acc.maxd <- fr.f_depth;
                    let n = Atomic.fetch_and_add visited_g 1 + 1 in
                    match max_states with
                    | Some b when n > b ->
                        Atomic.set budget_flag true;
                        Atomic.set stop true;
                        false
                    | _ -> true)
              in
              let proceed =
                proceed
                &&
                match deadline with
                | Some d when Unix.gettimeofday () > d ->
                    Atomic.set budget_flag true;
                    Atomic.set stop true;
                    false
                | _ -> true
              in
              if proceed then
                expand_state ~ctx ~witnesses ~por ~sym acc fr.f_st
                  fr.f_path fr.f_depth sleep
                  ~child:(fun st' path' depth' sleep' ->
                    let fr' =
                      { f_st = st';
                        f_path = path';
                        f_depth = depth';
                        f_sleep = sleep' }
                    in
                    if depth' mod cut = 0 then begin
                      (* Subtree crosses a depth cut: publish it so idle
                         domains can claim it. *)
                      acc.spawned <- acc.spawned + 1;
                      Atomic.incr pending;
                      Dq.push dq fr'
                    end
                    else local := fr' :: !local)
        end
      in
      (* Drain one task: seed the private stack and run it dry. On
         [stop] (budget, deadline, failure elsewhere) the remaining
         local frames are dropped — the search is being abandoned. *)
      let run_task fr =
        (try
           local := [ fr ];
           let continue = ref true in
           while !continue do
             match !local with
             | [] -> continue := false
             | f :: rest ->
                 local := rest;
                 if Atomic.get stop then (local := []; continue := false)
                 else process f
           done
         with e ->
           local := [];
           ignore (Atomic.compare_and_set failure None (Some e));
           Atomic.set stop true);
        Atomic.decr pending
      in
      let rec loop () =
        if Atomic.get stop || Atomic.get pending <= 0 then ()
        else
          match Dq.pop dq with
          | Some fr ->
              run_task fr;
              loop ()
          | None -> steal_loop 0
      and steal_loop misses =
        if Atomic.get stop || Atomic.get pending <= 0 then ()
        else begin
          let got = ref None in
          let i = ref 1 in
          while Option.is_none !got && !i < jobs do
            (match Dq.steal deques.((me + !i) mod jobs) with
            | Some f -> got := Some f
            | None -> ());
            incr i
          done;
          match !got with
          | Some fr ->
              acc.stolen <- acc.stolen + 1;
              run_task fr;
              loop ()
          | None ->
              (* Back off: spin briefly (cheap when every domain has its
                 own core), then yield the processor — when domains
                 outnumber cores, spinning would burn the timeslice the
                 task-holding worker needs to make progress. *)
              if misses < 32 then Domain.cpu_relax ()
              else Unix.sleepf 0.0002;
              steal_loop (misses + 1)
        end
      in
      loop ();
      acc.mwords <- int_of_float (Gc.minor_words () -. mw0);
      acc
    in
    let domains =
      Array.init jobs (fun me -> Domain.spawn (fun () -> worker me))
    in
    let accs = Array.to_list (Array.map Domain.join domains) in
    (match Atomic.get failure with Some e -> raise e | None -> ());
    let res = finish ~t0 ~jobs accs in
    (* Seen-set shape after the search: how evenly the stripes filled
       (peak occupancy) and how many were touched at all. *)
    let stripes, occ =
      Array.fold_left
        (fun (n, m) (_, tbl) ->
          let len = Statekey.Table.length tbl in
          ((if len > 0 then n + 1 else n), max m len))
        (0, 0) shards
    in
    let res =
      { res with
        stats =
          { res.stats with seen_stripes = stripes; stripe_occupancy = occ } }
    in
    if Atomic.get budget_flag then
      { res with stats = { res.stats with budget_hit = true } }
    else res

  let explore ?max_states ?deadline ?(witnesses = false) ?(por = true)
      ?(task_cut = default_task_cut) ?(jobs = 1) ~ctx init =
    let t0 = Unix.gettimeofday () in
    let sym = M.sym ctx in
    let res =
      if jobs <= 1 then begin
        let acc = new_acc () in
        let seen : seen_v Statekey.Table.t =
          Statekey.Table.create ~dummy:dummy_seen ()
        in
        let mw0 = Gc.minor_words () in
        dfs ~ctx ~witnesses ~max_states ~deadline ~por ~sym ~seen acc
          [ (init, [], 0) ];
        acc.mwords <- int_of_float (Gc.minor_words () -. mw0);
        let res = finish ~t0 ~jobs:1 [ acc ] in
        let len = Statekey.Table.length seen in
        { res with
          stats =
            { res.stats with
              seen_stripes = (if len > 0 then 1 else 0);
              stripe_occupancy = len } }
      end
      else
        explore_tasks ~max_states ~deadline ~witnesses ~jobs ~task_cut ~por
          ~sym ~ctx init t0
    in
    match sym with
    | None -> res
    | Some s ->
        { res with
          stats =
            { res.stats with
              sym_groups = Symmetry.n_groups s;
              sym_collapsed = Symmetry.collapsed s } }
end

let enumerate_paths (type s l) ~(expand : s -> (s, l) expansion)
    ?(max_paths = max_int) (init : s) : l list list =
  let out = ref [] in
  let count = ref 0 in
  let exception Done in
  let rec go st acc =
    if !count >= max_paths then raise Done;
    match expand st with
    | Terminal _ ->
        incr count;
        out := List.rev acc :: !out
    | Steps steps ->
        List.iter
          (function Emit _ -> () | Step (lbl, st') -> go st' (lbl :: acc))
          steps
  in
  (try go init [] with Done -> ());
  !out
