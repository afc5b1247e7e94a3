(** Thread-symmetry reduction for the exploration engine.

    The verification workload is dominated by interleavings of
    {e interchangeable} threads — N identical VCPUs hammering the same
    lock or page-table slot. Classic symmetry reduction (Clarke-Enders-
    Filkorn-Jha / Emerson-Sistla "scalarsets") quotients the state space
    by thread-index permutations: if swapping two identical threads maps
    state [s] to state [s'], then [s] and [s'] have the same reachable
    outcome sets, so only one of them needs to be explored. On a family
    of N symmetric writers the seen set shrinks by up to N!.

    {2 Detection}

    Two threads are in the same {e symmetry group} when (a) their
    instruction streams have identical canonical byte encodings — the
    exact {!Statekey.emit_instrs} tokens {!Fingerprint} digests, so any
    difference in constants, registers, barriers or structure separates
    them — and (b) neither is named by a per-thread [Obs_reg]
    observable (collapsing individually-observed threads would conflate
    distinct outcomes; [Obs_loc] observables are global and
    permutation-invariant). Note that thread-local register {e names}
    need no renaming: register files are per-thread maps, so identical
    code implies identical register usage. Data values derived from the
    thread's own id (e.g. a thread storing its tid) make the encodings
    differ and exclude the pair automatically — value symmetry is out of
    scope.

    {2 Canonicalization}

    The models do not physically permute states. Instead each model's
    key function summarizes every thread-local component (pc/continuation,
    registers, store buffer, promise set, views) into one 128-bit
    sub-key per thread, and {!fold_threads}/{!order} absorb those
    sub-keys in {e orbit-canonical} order: within each group, sorted by
    {!Statekey.compare}. All members of a permutation orbit therefore
    intern to the same {!Statekey.t}, and the engine's seen set performs
    the quotient for free. Shared components that mention thread indices
    (Promising's message writer ids) are relabelled through the
    {!inverse} rank before hashing, so the ownership relation is
    permuted consistently with the thread order.

    {2 Soundness}

    Collapsing [s'] into [s] is sound because the transition relation is
    equivariant under within-group permutations (identical code,
    index-uniform semantics) and outcomes are permutation-invariant
    (grouped threads have no [Obs_reg] observables; [Obs_loc] reads
    shared memory, which permutations do not touch). The models
    restrict or disable canonicalization where a model-level asymmetry
    could be masked: Promising under [strict_certification] (mirroring
    the POR valve) and push/pull whenever any base is ownership-tracked
    (violations carry concrete thread ids). Interaction with sleep-set
    POR: sleep sets are history — a label pruned at the representative
    need not be pruned at a permuted arrival — so the engine keeps only
    permutation-invariant labels (ungrouped threads') in sleep sets; a
    model hands the engine its structure through {!Engine.MODEL.sym}. *)

type t
(** Symmetry structure of one program: the thread groups plus a
    collapsed-arrival counter. Cheap to build; computed once per
    exploration context. *)

val detect : Prog.t -> t option
(** [None] when no two threads are interchangeable — canonicalization
    then costs nothing (models fall back to their plain keys). Thread
    {e indices} in the result are positions in [prog.threads], the same
    indexing the engine and models use, not declared tids. *)

val n_groups : t -> int
val groups : t -> int array array

val grouped : t -> int -> bool
(** Is thread index [i] a member of some symmetry group? Drives the
    engine's sleep-set filter. *)

val collapsed : t -> int
(** How many key computations re-oriented a non-representative arrival
    — the [sym_collapsed] statistic. Atomic; summed across domains. *)

val order : t -> Statekey.t array -> int array
(** [order s sub] (one sub-key per thread index): [ord] with [ord.(p)]
    the thread occupying canonical slot [p] — identity outside groups,
    ascending-sub-key order inside. Deterministic given [sub]; ties
    (identical sub-keys) keep index order, which is harmless because
    tied threads are indistinguishable in the current state. *)

val inverse : int array -> int array
(** Inverse permutation: [inverse ord].(i) = canonical slot of thread
    [i]. Promising maps message writer ids through it. *)

val fold_threads : t -> Statekey.h -> Statekey.t array -> unit
(** Absorb the sub-keys into [h] in canonical order — the whole
    canonical tail for models whose shared state carries no thread
    indices (SC, TSO, push/pull). *)

val pp : Format.formatter -> t -> unit
