(** Multi-threaded DSL programs and their observables. *)

type thread = { tid : int; code : Instr.t list; comment : string }

type observable =
  | Obs_reg of int * Reg.t  (** final value of a register of thread [tid] *)
  | Obs_loc of Loc.t  (** final value of a shared location *)

type t = {
  name : string;
  threads : thread list;
  init : (Loc.t * int) list;  (** initial memory; unlisted locations are 0 *)
  observables : observable list;
  shared_bases : string list;
      (** bases subject to the DRF discipline; empty means: inferred as
          every base touched by more than one thread *)
}

val thread : ?comment:string -> int -> Instr.t list -> thread

val make :
  ?init:(Loc.t * int) list ->
  ?shared_bases:string list ->
  name:string ->
  observables:observable list ->
  thread list ->
  t
(** Raises [Invalid_argument] on duplicate thread ids. *)

val n_threads : t -> int
val find_thread : t -> int -> thread

val thread_index : t -> int -> int
(** [thread_index p tid]: position in [p.threads] of the thread declared
    as [tid] — the index the executors key their thread arrays by.
    Raises [Invalid_argument] on an unknown tid. *)

val observable_reg : t -> int -> Reg.t -> bool
(** [observable_reg p idx r]: is register [r] of the thread at index
    [idx] named by an [Obs_reg] observable? *)
val init_value : t -> Loc.t -> int
val known_locs : t -> Loc.t list

val shared_bases : t -> string list
(** The declared shared bases, or the inferred set (bases touched by at
    least two threads) when none were declared. *)

val pp_observable : Format.formatter -> observable -> unit
val show_observable : observable -> string
val equal_observable : observable -> observable -> bool
val compare_observable : observable -> observable -> int
