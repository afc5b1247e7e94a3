(** A thread's code continuation: the instructions it has left to run.
    Every suffix carries three facts about its instruction list, computed
    once, when its node is built: a 128-bit key, its store bases and its
    access bases.

    Every keyed state needs the key of each thread's code, and every
    Promising promise step and certification needs its footprint, so
    neither may cost a walk of the code. A node computes both from its
    instruction and its rest: the key of [i :: rest] folds [i]'s
    canonical token stream ({!Statekey.emit_instr}) into the key of
    [rest], and the footprint adds [i]'s bases, branch and loop bodies
    included, to [rest]'s. So taking the tail is free.

    Entering an [If] branch ({!branch}) or a [While] body ({!loop})
    builds that body's nodes the first time only: the [If] or [While]
    node keeps the entered continuation, and every later entry returns
    it. A loop's entry ends in the loop's own node, so each iteration
    enters the same physical continuation.

    Keys depend on the instruction list alone, never on how the
    continuation was built: structurally equal lists have equal keys,
    and distinct lists have distinct keys up to 128-bit hash collisions
    (see {!Statekey}). The only mutable state is the entry caches, hidden
    in {!entries}, each written once with a key-equal value, so
    continuations are safe to share across domains. *)

type t = private
  | Nil
  | Cons of {
      instr : Instr.t;
      rest : t;
      key : Statekey.t;  (** key of the whole list [instr :: rest] *)
      stores : string list;  (** see {!stores} *)
      accesses : string list;  (** see {!accesses} *)
      entries : entries;
    }

and entries
(** The continuations {!branch} and {!loop} have built from the node;
    only they can read it. *)

val of_list : Instr.t list -> t

val prepend : Instr.t list -> t -> t
(** [prepend is k] runs [is], then [k]: for [k = of_list l] it is
    [of_list (is @ l)], at the cost of building only [is]'s nodes. *)

val branch : t -> bool -> t
(** [branch k holds], [k]'s first instruction being [If (c, a, b)]:
    [prepend a (tail k)] when [holds], else [prepend b (tail k)], built
    on the first call for each side and returned as is after that.
    @raise Invalid_argument when [k] does not start with an [If]. *)

val loop : t -> t
(** [loop k], [k]'s first instruction being [While (c, body)]:
    [prepend body k], built on the first call and returned as is after
    that.
    @raise Invalid_argument when [k] does not start with a [While]. *)

val is_empty : t -> bool

val fold : ('a -> Instr.t -> 'a) -> 'a -> t -> 'a
(** Left fold over the instructions, first to last. *)

val head : t -> Instr.t
(** The next instruction. @raise Invalid_argument on [Nil]. *)

val tail : t -> t
(** The instructions after the next one. @raise Invalid_argument on
    [Nil]. *)

val key : t -> Statekey.t
(** Key of the instruction list. *)

val stores : t -> string list
(** The bases [Store] instructions in the list address, branch and loop
    bodies included: sorted, without duplicates. Empty exactly when the
    list has no [Store]. *)

val accesses : t -> string list
(** The bases loads, stores and read-modify-writes in the list address,
    branch and loop bodies included: sorted, without duplicates. A run
    of the code reads or writes locations on these bases only. *)
