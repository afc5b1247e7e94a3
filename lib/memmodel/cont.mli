(** A thread's code continuation: the instructions it has left to run,
    each suffix carrying a 128-bit key of its instruction list.

    Every model's per-thread state key used to re-serialise the whole
    remaining instruction list on every keyed state. A continuation
    computes its key once, when it is built: the key of [i :: rest]
    folds [i]'s canonical token stream ({!Statekey.emit_instr}) into the
    key of [rest]. So taking the tail is free, and entering an [If]
    branch or a [While] body ({!prepend}) costs the size of that body.

    Keys depend on the instruction list alone, never on how the
    continuation was built: structurally equal lists have equal keys,
    and distinct lists have distinct keys up to 128-bit hash collisions
    (see {!Statekey}). Continuations are immutable, so they are safe to
    share across domains. *)

type t = private
  | Nil
  | Cons of { instr : Instr.t; rest : t; key : Statekey.t }
      (** [key] is the key of the whole list [instr :: rest] *)

val of_list : Instr.t list -> t

val prepend : Instr.t list -> t -> t
(** [prepend is k] runs [is], then [k]: for [k = of_list l] it is
    [of_list (is @ l)], at the cost of building only [is]'s nodes. *)

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
