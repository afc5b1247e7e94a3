(** Model-generic exhaustive exploration engine.

    Every operational memory model in this library ({!Sc}, {!Tso},
    {!Promising}, {!Pushpull}) explores the same kind of object: a finite
    transition system whose states carry the whole machine configuration
    and whose terminal states yield observable {!Behavior.outcome}s. What
    used to be quadruplicated across the executors — depth-first search,
    seen-set memoization on a canonical state key, budget valves,
    fuel/panic outcome recording, and per-outcome witness schedules — lives
    here once, parameterized over a {!MODEL}.

    A model describes one state's outgoing structure with {!expansion}:
    either the state is terminal (optionally recording an outcome — [None]
    marks dead paths such as unfulfilled promises or pruned states), or it
    offers the list of its labelled transitions, built whole when the
    state is expanded and taken in list order.

    {2 State interning}

    The seen-set is keyed on 128-bit structural hashes ({!Statekey})
    instead of rendered key strings, stored unboxed in open-addressing
    tables: an entry allocates no key. A lookup allocates the
    [`Found] block when the state was seen, and a value only for a
    state reached with a non-empty sleep set — an empty one (every
    state when POR is off) shares one value. This is hash compaction:
    see {!Statekey} for the collision argument.

    {2 Partial-order reduction}

    Every model labels its transitions with {!Porlabel} footprints, and
    the engine owns the reduction: when [por] is on it consults
    {!Porlabel.independent} and {!Porlabel.ample} directly and applies
    two sound reductions:

    - {e Sleep sets} (Godefroid): after exploring sibling [t{_i}], later
      siblings' subtrees need not re-explore [t{_i}] at the next state
      when it is independent of the transition taken — the two
      interleavings commute to the same state, and the [t{_i}]-first
      order was already explored. Sleep sets prune transitions (dedup
      work), never outcomes: every dropped schedule is Mazurkiewicz-
      equivalent to an explored one, and equivalent schedules end in the
      same terminal state, hence the same outcome. Combined with
      memoization, a visited state stores the sleep set it was explored
      under; a revisit deduplicates only if the stored set is a subset of
      the incoming one, else the state is re-explored under the
      intersection (monotone, hence terminating — state spaces here are
      acyclic because every transition consumes an instruction, loop fuel
      or a buffer entry).
    - {e Singleton ample sets}: when some enabled transition is [ample] —
      invisible (changes no memory, store buffer, or observable
      register), its thread's unique transition, and independent of every
      other thread's transitions — the engine explores {e only} that
      transition. Any run taking a sibling first commutes to one taking
      the ample step first without changing any observation: mid-path
      [Emit] outcomes snapshot only observable state, which the ample
      step does not touch, and terminal outcomes are reached either way.
      This is what makes POR visit {e strictly fewer states}, not just
      fewer transitions.

    [Emit] steps are always recorded and never pruned. [~por:false]
    keeps exact search.

    {2 Symmetry reduction}

    Orthogonal to POR, the models may canonicalize their keys under
    thread-symmetry ({!Symmetry}): states that differ only by a
    permutation of interchangeable threads intern to one seen-set
    entry, quotienting the search by up to N! on N symmetric threads.
    A model exposes its context's symmetry structure through
    {!MODEL.sym}; the quotient itself falls out of ordinary memoization
    on the canonical keys, and the engine adds one composition rule: it
    keeps the labels of grouped threads out of sleep sets, because
    sleep sets are history and a revisit may arrive with its symmetric
    threads permuted, where literal label comparison against stored
    history would be wrong. Ungrouped threads keep full sleep-set
    pruning, and singleton-ample reduction (history-free,
    permutation-equivariant) still applies to symmetric threads. The
    engine also fills the [sym_groups]/[sym_collapsed] statistics.

    {2 Parallel search: the frontier scheduler}

    [explore ~jobs:n] runs [n] OCaml 5 [Domain]s over a {e shared}
    seen-set striped into mutex-guarded shards (selected by high key
    bits). An exploration is split into {e subtree tasks} at depth
    cuts: a successor whose depth is a multiple of [task_cut] is
    published to a per-domain deque (carrying its sleep-set context, so
    reduction state survives the hand-off), while all other successors
    stay on the publishing worker's private stack and are processed
    without touching a lock beyond the seen-set shard. Owners push and
    pop tasks depth-first at one end of their deque; idle domains steal
    the oldest task (rooting the largest subtree) from a victim's other
    end. This keeps the scheduling granularity coarse — one deque
    operation per [task_cut] tree levels instead of one per state — so
    a single large corpus entry saturates all domains instead of
    drowning in per-frame mutex traffic. [max_states] and [deadline]
    are enforced {e globally} through [Atomic] counters: the first
    domain to trip a valve stops all of them promptly, and a deadline
    that fires mid-task drops the remaining private frames of every
    worker, so the partial-result classification ([budget_hit]) is the
    same as the sequential engine's.

    [jobs] is taken as given — the engine does not second-guess the
    caller. Callers that fan out over corpora ({!Vrm.Refinement}, the
    CLI) cap it at [Domain.recommended_domain_count ()]:
    oversubscribing domains adds stop-the-world minor-GC barriers and
    scheduler churn without any parallelism in return (the behavior set
    does not depend on the domain count either way).

    Determinism argument: models are pure (expansion depends only on the
    state), so the set of outcomes reachable from a state is a function
    of that state. Every frame is either expanded by exactly one domain
    or deduplicated against a shard entry written by a domain that
    expanded (or is expanding) the same state under a sleep set no larger
    than its own; therefore the union of all domains' outcome sets equals
    the sequential result whenever no budget fires. Witness schedules and
    the state/dedup/steal counters may differ run to run, but the
    behavior set is identical — the parity tests assert digest equality
    against sequential search with POR both on and off. *)

val version : string
(** Version tag of the exploration semantics. Any change that can alter a
    behavior set, a witness schedule, or the meaning of a budget must bump
    this string: it is part of every content-addressed cache key
    ({!Cache.Store}), so a bump invalidates all previously stored
    verification results. *)

(** Exploration statistics, threaded up through {!Litmus.run},
    {!Vrm.Refinement.check} and {!Vrm.Theorem4.check}. *)
type stats = {
  visited : int;  (** distinct states expanded *)
  dedup_hits : int;  (** transitions into an already-seen state *)
  transitions : int;  (** transitions enumerated (including emits) *)
  max_depth : int;  (** deepest point of the search *)
  outcomes : int;  (** distinct outcomes recorded *)
  por_pruned : int;
      (** transitions skipped by partial-order reduction (sleeping
          siblings + ample-pruned siblings); 0 with [por] off *)
  tasks_spawned : int;
      (** subtree tasks published to the shared deque pool at depth
          cuts (parallel mode only; 0 when sequential) *)
  tasks_stolen : int;
      (** tasks claimed from another domain's deque *)
  shared_hits : int;
      (** dedup hits against a seen-set entry inserted by a different
          domain — work the shared seen-set saved vs private sets *)
  cert_calls : int;
      (** promise-certification queries answered (memoized or not);
          0 for models without a certification step *)
  cert_hits : int;
      (** certification queries answered from the per-exploration cert
          cache without re-running the solo search *)
  sym_groups : int;
      (** symmetric thread groups detected in the program (0 = symmetry
          off, or no two threads interchangeable) *)
  sym_collapsed : int;
      (** state arrivals whose thread orientation was rewritten to the
          orbit representative — each one is a state the raw keying
          would have interned separately *)
  seen_stripes : int;
      (** seen-set stripes populated by the search (1 in sequential
          mode; up to 64 under the striped shared seen-set) *)
  stripe_occupancy : int;
      (** peak key count in any single stripe — with [seen_stripes],
          a summary of how evenly the hash striping spread the load *)
  lock_waits : int;
      (** stripe-lock acquisitions that found the lock already held by
          another domain (try-lock misses) — the seen-set contention
          measure; 0 when sequential *)
  minor_words : int;
      (** minor-heap words allocated across all exploration domains
          (per-domain [Gc] deltas, summed) — the allocation-pressure
          counter behind the scaling gate *)
  wall_s : float;  (** wall-clock seconds for the whole exploration *)
  jobs : int;  (** effective domains used (1 = sequential) *)
  budget_hit : bool;  (** some budget valve fired: partial results *)
}

val zero_stats : stats

val add_stats : stats -> stats -> stats
(** Aggregate statistics of independent explorations: counters and wall
    time add, depth and job count take the maximum, budget flags or. *)

val pp_stats : Format.formatter -> stats -> unit
(** Renders the POR/sym/task/shared/cert/contention counters only when
    non-zero (stripe occupancy only in parallel mode), so output for
    models without those features is unchanged from earlier versions. *)

(** One outgoing transition of a state. *)
type ('state, 'label) step =
  | Step of 'label * 'state
      (** successor state; the label is the transition's footprint: the
          currency of partial-order reduction, and the entries of a witness
          path *)
  | Emit of Behavior.outcome
      (** the path ends here with an outcome — fuel exhaustion and panics
          are emitted this way while sibling transitions keep exploring *)

type ('state, 'label) expansion =
  | Terminal of Behavior.outcome option
      (** no transitions; [Some o] records the outcome, [None] discards
          the path (dead states, strict-certification pruning) *)
  | Steps of ('state, 'label) step list  (** outgoing transitions *)

module type MODEL = sig
  type ctx
  (** Per-exploration context (program, configuration) closed over by
      [expand]; immutable, shared across domains. *)

  type state

  val sym : ctx -> Symmetry.t option
  (** The context's thread-symmetry structure, or [None] when symmetry
      is off or no two threads are interchangeable. The engine keeps
      grouped threads' labels out of sleep sets and reports the
      structure's [sym_groups]/[sym_collapsed] statistics; the model
      keys states orbit-canonically under it in {!key}. *)

  val key : ctx -> state -> Statekey.t
  (** Canonical memoization key: two states with the same key must have
      the same reachable outcome sets. Fold every semantically relevant
      state component into the hash ({!Statekey.fresh}/[finish]). Under
      [sym ctx = Some s] the model hashes symmetric threads in
      orbit-canonical order — permuted states then share a key, which
      is sound because permuting interchangeable threads preserves
      reachable outcome sets. *)

  val expand : ctx -> state -> (state, Porlabel.t) expansion
  (** Outgoing structure of a state. Each [Step] carries its transition's
      {!Porlabel} footprint, which must meet the obligations listed
      there: in particular, labels uniquely identify a transition among
      the enabled set of any state they can both be pending at (the
      engine compares them with {!Porlabel.equal}), and a label may
      claim [silent] only for an invisible, thread-unique transition.
      Must be pure up to the exceptions it deliberately lets escape. *)
end

module Make (M : MODEL) : sig
  type result = {
    behaviors : Behavior.t;
    witnesses : (Behavior.outcome * Porlabel.t list) list;
        (** for each outcome, the first schedule that produced it (empty
            unless [witnesses:true]) *)
    stats : stats;
  }

  val explore :
    ?max_states:int ->
    ?deadline:float ->
    ?witnesses:bool ->
    ?por:bool ->
    ?task_cut:int ->
    ?jobs:int ->
    ctx:M.ctx ->
    M.state ->
    result
  (** Exhaustively explore from the initial state. [max_states] is a
      safety valve: exploration stops (with [stats.budget_hit] set) after
      expanding that many distinct states — enforced {e globally} via an
      [Atomic] counter in parallel mode, so [~jobs:4 ~max_states:b]
      expands at most [b] states total, same as sequential. [deadline]
      is an absolute [Unix.gettimeofday] timestamp: once it passes, the
      search stops at the next expanded state (in every domain) with
      [stats.budget_hit] set, which is how the verification service
      cancels jobs that outlive their per-job deadline. [por] (default
      [true]) applies partial-order reduction; the behavior set is
      identical either way. [task_cut]
      (default 8) is the depth granularity at which subtrees are
      published as stealable tasks; ignored when [jobs <= 1], and any
      value yields the same behavior set. Exceptions raised by
      [M.expand] abort the search in every domain and propagate (first
      exception wins). *)
end

val enumerate_paths :
  expand:('state -> ('state, 'label) expansion) ->
  ?max_paths:int ->
  'state ->
  'label list list
(** Unmemoized enumeration of the label paths of all complete executions
    (paths ending in [Terminal]); [Emit] branches are dropped, and at most
    [max_paths] paths are collected (most recently found first). Used for
    trace collection on small programs ({!Pushpull.traces}). *)
