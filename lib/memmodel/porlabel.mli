(** Transition footprints for partial-order reduction: the label type of
    {!Engine.MODEL.expand}, shared by every interleaving model ({!Sc},
    {!Tso}, {!Promising}, {!Pushpull}). The engine consults
    {!independent} and {!ample} itself when POR is on.

    A label records one transition's footprint on shared and observable
    state. Two labels commute exactly when their footprints are disjoint
    in the sense of {!independent}; every model compiles its transitions
    into this one vocabulary so the reduction argument is proved once
    and reused (the IMM strategy: a single intermediate event
    abstraction between the models and the engine).

    The model constructing a label takes on these proof obligations:

    - [reads]/[writes] list every shared location the transition may
      read or write (including message appends and store-buffer
      drains). A location missing from the lists asserts the transition
      cannot touch it.
    - [alloc] marks transitions that allocate from a state-global
      ordered resource (a Promising timestamp). Two allocating
      transitions never commute: whichever runs first claims the
      earlier timestamp, so the resulting states differ.
    - [obases]/[otransfer]: per-base ownership footprints for the
      push/pull discipline. [obases] lists bases whose ownership the
      transition consults (a tracked access); [otransfer] lists bases
      whose ownership it changes (pull/push). A transfer conflicts with
      any consult or transfer of the same base.
    - [cert_read]/[cert_write]: certification footprints. [cert_read]
      lists bases whose message history the transition's {e enabledness
      or certification verdict} depends on; [cert_write] lists bases
      whose history it changes in a way that can invalidate another
      thread's certification memo key (append, fulfil). Disjointness
      here is the "neither invalidates the other's memo key" half of
      certification-aware independence.
    - [global] marks fence-like actions with an unbounded footprint
      (buffer flush, fenced RMW, an ownership violation). Dependent on
      every other-thread label that has any footprint; commutes only
      with fully quiet labels.
    - [silent] additionally asserts the transition is the thread's
      {e unique} enabled transition, touches nothing observable, and is
      quiet. Qualifies for singleton-ample reduction: executing it
      first commutes with any other thread's transition and changes no
      observation, so sibling orders need not be explored at all.
    - [disc] is a discriminator with no commutativity meaning. Within
      one state a thread's enabled transitions must carry distinct
      labels (the sleep-set test prunes by label equality); when two
      same-thread transitions would otherwise be indistinguishable
      (e.g. two read choices of the same location), [disc] must
      separate them. It must be {e stable}: derived from the
      transition itself (message timestamp, candidate index), never
      from the source state, because a sleeping label must keep
      denoting the same transition across the independent moves it
      sleeps through.

    Same-thread labels are always dependent, so sleep sets never carry
    a label across a move of its own thread. *)

type t = {
  tid : int;
  disc : int;
  silent : bool;
  global : bool;
  alloc : bool;
  reads : Loc.t list;
  writes : Loc.t list;
  obases : string list;
  otransfer : string list;
  cert_read : string list;
  cert_write : string list;
}

val empty : tid:int -> t
(** No footprint, not silent. Commutes with everything of other
    threads, including [global] labels. *)

val silent : tid:int -> t
(** [empty] plus the singleton-ample claim. *)

val private_ : tid:int -> t
(** Alias of [empty]: thread-private but observable or not provably
    unique, so never ample. *)

val read : tid:int -> Loc.t -> t
val write : tid:int -> Loc.t -> t
val rmw : tid:int -> Loc.t -> t

val sync : tid:int -> t
(** A [global] label. *)

val equal : t -> t -> bool
(** Structural equality, field by field: agrees with polymorphic [=] on
    labels, without its generic traversal. The engine's sleep sets and
    the witness replay compare labels with it. *)

val quiet : t -> bool
(** No footprint in any dimension (ignoring [silent]/[disc]). *)

val independent : t -> t -> bool
(** Commutativity: same-thread labels are dependent; [global] labels
    conflict with anything non-quiet; two [alloc]s conflict; writes
    conflict with same-location reads and writes; ownership transfers
    conflict with same-base consults and transfers; certification
    writes conflict with same-base certification reads. Everything
    else commutes. *)

val ample : t -> bool
(** [silent] labels only. *)

val pp : Format.formatter -> t -> unit
