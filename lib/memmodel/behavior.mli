(** Observable behaviors of a program execution, and behavior sets.

    A behavior is the vector of observable values at the end of an
    execution plus a status flag: whether some thread panicked, or
    exploration fuel ran out on that path (spin loops are unrolled only up
    to the executor's fuel; fuel-exhausted paths are reported separately
    so bounded exploration never silently drops outcomes). *)

type status = Normal | Panicked | Fuel_exhausted

type outcome = {
  values : (Prog.observable * int) list;  (** sorted by observable *)
  status : status;
}

val outcome : ?status:status -> (Prog.observable * int) list -> outcome
(** Canonicalizes the value vector (sorted by observable). *)

val observe :
  Prog.t -> reg:(int -> Reg.t -> int) -> loc:(Loc.t -> int) -> status ->
  outcome
(** The outcome of a state: [reg idx r] reads register [r] of the thread
    at index [idx] ({!Prog.thread_index}), [loc l] the final value of
    location [l]. Shared by every executor's terminal and emit steps. *)

val pp_outcome : Format.formatter -> outcome -> unit
val equal_outcome : outcome -> outcome -> bool
val compare_outcome : outcome -> outcome -> int
val pp_status : Format.formatter -> status -> unit
val show_status : status -> string
val equal_status : status -> status -> bool
val compare_status : status -> status -> int

module Outcome_set : Set.S with type elt = outcome

type t = Outcome_set.t

val empty : t
val add : outcome -> t -> t
val elements : t -> outcome list
val cardinal : t -> int
val mem : outcome -> t -> bool
val union : t -> t -> t

val subset : t -> t -> bool
(** [subset a b] — every behavior of [a] is a behavior of [b]. The
    executable form of the paper's Theorem 1 is
    [subset (run_promising p) (run_sc p)]. *)

val equal : t -> t -> bool

val diff : t -> t -> t
(** Behaviors in the first set absent from the second: the
    relaxed-memory-only witnesses when a program violates wDRF. *)

val exists_outcome : (outcome -> bool) -> t -> bool

val satisfiable : ((Prog.observable -> int option) -> bool) -> t -> bool
(** Does some [Normal] outcome satisfy the predicate on its value vector?
    (litmus "exists" clauses) *)

val any_panic : t -> bool
val any_fuel_exhausted : t -> bool
val pp : Format.formatter -> t -> unit
