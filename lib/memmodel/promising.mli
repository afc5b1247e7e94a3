(** Executable Promising Arm relaxed-memory model.

    An operational model in the style of Promising-ARM (Pulte et al.,
    PLDI 2019) — the model the paper's Coq proofs are carried out on.
    Memory is an append-only list of timestamped messages; threads execute
    in program order but may {e promise} future stores after certifying
    (by a solo run) that they will fulfill them. Relaxed behavior arises
    from promises (other threads observe a store "early") and stale reads
    (a load may return any message not superseded below the thread's read
    floor).

    Per-thread views implement the Armv8 ordering constraints of paper
    §4: per-location coherence, register views for data and address
    dependencies, control views that order stores but not loads (which is
    what lets Example 2's loads speculate), floor-raising for barriers and
    acquire/release — including the RCsc [L];po;[A] ordering.

    Documented simplifications (none affecting the kernel corpus): RMWs
    are not promotable and always read the coherence-latest message. The
    executor is exhaustive up to the {!config} bounds; see {!Axiomatic}
    for the cross-validation against the Armv8 axiomatic model. *)

type config = {
  loop_fuel : int;  (** max loop iterations per thread *)
  max_promises : int;  (** promise budget per thread *)
  cert_depth : int;  (** max solo steps during certification *)
  max_states : int;  (** exploration safety valve *)
  strict_certification : bool;
      (** re-certify outstanding promises at every step (the letter of the
          Promising semantics); the lazy default prunes unfulfillable
          paths at the end — outcome-equivalent, cheaper *)
  cert_cache : bool;
      (** memoize certification verdicts within one exploration, keyed on
          everything [certifiable] reads (shared memory, the certifying
          thread's state, other threads' outstanding promises) —
          verdict-preserving, so the behavior set is identical either
          way; on by default, [--no-cert-cache] for A/B runs. Hit/call
          counts surface as {!Engine.stats} [cert_hits]/[cert_calls]. *)
}

val default_config : config

exception State_budget_exhausted

(** One line of a witness schedule: which CPU did what. *)
type step = {
  s_tid : int;  (** thread id, as declared in the program *)
  s_what : string;  (** human-readable action *)
}

val pp_step : Format.formatter -> step -> unit
val pp_schedule : Format.formatter -> step list -> unit

val run :
  ?config:config -> ?jobs:int -> ?deadline:float -> ?por:bool ->
  ?sym:bool -> Prog.t -> Behavior.t
(** Explore all Promising Arm executions (bounded by [config]) and return
    the behavior set. [jobs] fans the search across that many domains via
    the shared {!Engine} (identical behavior set). [deadline] (absolute
    [Unix.gettimeofday] time) cancels the search when it passes. [por]
    (default on) applies sleep-set/ample partial-order reduction over the
    certification-aware {!Porlabel} footprints — same behavior set, fewer
    states; it is forced off under [strict_certification], where pruned
    orders could die on mid-path certification checks that the explored
    order misses. [sym] (default on) applies thread-symmetry reduction
    ({!Symmetry}): states differing only by a permutation of
    interchangeable threads (message [wtid]s remapped consistently,
    timestamps untouched) intern once — same behavior set, up to N!
    fewer states; also forced off under [strict_certification]. *)

val run_stats :
  ?config:config -> ?jobs:int -> ?deadline:float -> ?por:bool ->
  ?sym:bool -> Prog.t -> Behavior.t * Engine.stats
(** Like {!run}, also returning exploration statistics. *)

val run_with_witnesses :
  ?config:config ->
  ?jobs:int ->
  ?deadline:float ->
  ?por:bool ->
  ?sym:bool ->
  Prog.t ->
  Behavior.t * (Behavior.outcome * step list) list
(** Like {!run}, additionally returning, for each distinct outcome, the
    first schedule (per-CPU steps, promises included) that produced it. *)

val run_full :
  ?config:config ->
  ?jobs:int ->
  ?deadline:float ->
  ?por:bool ->
  ?sym:bool ->
  Prog.t ->
  Behavior.t * (Behavior.outcome * step list) list * Engine.stats
(** Behaviors, witnesses and statistics in one exploration. The search
    records each witness as its footprint path; the schedule text is
    rendered afterwards by replaying each path from the initial state,
    so statistics cover the search alone. *)

(** {2 Memory keys}

    A state's key folds one key per thread with a memory key that is
    kept on every append instead of re-walking the message list. Exposed
    for the key-relation tests. *)

type message = {
  mloc : Loc.t;
  mbase : int;
      (** id of [mloc]'s base in the exploration's layout: the program's
          base names, sorted, numbered from 0 *)
  mval : int;
  ts : int;  (** position in the append-only memory; 0 = initial *)
  wtid : int;  (** writing thread; -1 for initial messages *)
}

val mem_key : message list -> Statekey.t
(** Key of a memory (newest message first), folded from scratch. *)

val mem_key_add : Statekey.t -> message -> Statekey.t
(** [mem_key_add (mem_key mem) m] is [mem_key (m :: mem)]: how a state
    updates its memory key when [m] is appended. *)

(** {2 Promise candidates}

    A thread's promise candidates are the stores it makes within
    [cert_depth] steps of running solo: stepping alone against memory
    while the other threads stand still. Exposed for the candidate-set
    tests, which walk the same solo paths through the main search's
    whole-state step and compare. *)

type state
(** A state of the search. *)

type probe = {
  initial : state;
  key : state -> Statekey.t;  (** the state's key, symmetry off *)
  successors : state -> state list;
      (** every successor the search takes from a state, promise steps
          included *)
  step : state -> int -> ((Loc.t * int) option * state list) option;
      (** [step st i]: [None] where thread [i] cannot step (it is done,
          panics or runs out of fuel); otherwise the location and value
          its next instruction writes, when that is a store, and the
          states after each of its successors, made as the main search
          makes them *)
  candidates : state -> int -> (Loc.t * int) list;
      (** [candidates st i]: the promise candidates the search offers
          thread [i] at [st], as (location, value) pairs, sorted, without
          duplicates *)
}

val probe : ?config:config -> Prog.t -> probe
(** The program's search under [config], symmetry off. *)
