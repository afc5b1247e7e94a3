(** The thread-local interpreter of the SC-family executors ({!Sc},
    {!Tso}, {!Pushpull}).

    The three models differ only in what memory is: one global map
    (SC), a map behind per-thread store buffers (TSO), or a map plus
    ghost ownership (push/pull). Everything a thread does on its own
    lives here once: registers, expression evaluation, control flow
    with loop fuel, the rule that an evaluation fault panics the
    thread, and RMW arithmetic. {!step} runs a thread's next
    instruction up to its memory access and hands that access to the
    model as one {!request}; the model applies it to its own memory.
    This is the split of the SPARC-TSO and IMM formalisations: one
    thread-local semantics, with the memory subsystem as the only part
    that differs between models.

    The per-thread state key and the memory-map hash live here too, so
    a model's key adds only its own extras (store buffers; poison and
    owners). *)

type thread = {
  code : Cont.t;
  regs : int Reg.Map.t;  (** unset registers read as 0 *)
  fuel : int;  (** loop iterations left *)
}

(** The arithmetic of an atomic read-modify-write, operands evaluated. *)
type rmw =
  | Add of int  (** fetch-and-add *)
  | Swap of int  (** exchange *)
  | Cas of int * int  (** compare-and-swap: expected, desired *)

(** What one instruction asks of memory. *)
type request =
  | Local  (** [Nop], a branch or a loop step: nothing outside the thread *)
  | Assign of Reg.t  (** [Move]: the register already holds its value *)
  | Read of Reg.t * Loc.t  (** load the location into the register *)
  | Write of Loc.t * int
  | Rmw of Reg.t * Loc.t * rmw
      (** atomic: the old value goes to the register, {!rmw} gives the
          value stored *)
  | Fence of Instr.barrier
  | Pull of string list
  | Push of string list
  | Tlbi of Loc.t option  (** the invalidated entry; [None] = all *)

exception Thread_panic
(** The thread panicked: an explicit [Panic], or a fault (division by
    zero) while evaluating any operand, address or TLBI scope. *)

val step : thread -> (request * thread) option
(** Run the thread's next instruction: its request, and the thread with
    [code] advanced past it ([regs] already updated for [Assign]; for
    [Read] and [Rmw] the model stores the value with {!set_reg}).
    [None] when a [While] whose guard holds has no fuel left.
    @raise Thread_panic as described there.
    @raise Invalid_argument on a finished thread. *)

val lookup_reg : int Reg.Map.t -> Reg.t -> int
val set_reg : thread -> Reg.t -> int -> thread

val read_mem : int Loc.Map.t -> Loc.t -> int
(** Unwritten locations read as 0. *)

val rmw : rmw -> int -> int option
(** [rmw op old]: the value the RMW stores, or [None] for a [Cas] whose
    comparison failed (it stores nothing). *)

val access : int Loc.Map.t -> thread -> request -> int Loc.Map.t * thread
(** Apply a request to one flat memory map: [Read], [Write] and [Rmw]
    act on it; every other request leaves memory and thread as they
    are. *)

val label : Prog.t -> int -> request -> Porlabel.t
(** The POR footprint of thread [i]'s request when it is the thread's
    unique transition and memory is one shared map: reads, writes and
    RMWs at their location; a [Move] to an observable register is
    private; everything else is silent (ample-eligible). *)

val init_mem : Prog.t -> int Loc.Map.t
val init_threads : fuel:int -> Prog.t -> thread array

val runnable : thread array -> int list
(** Indices of the threads with code left, highest first — the order
    in which the models offer their transitions. *)

val observe :
  Prog.t -> thread array -> int Loc.Map.t -> Behavior.status ->
  Behavior.outcome
(** Observation over one flat memory map. *)

val hash_mem : Statekey.h -> int Loc.Map.t -> unit

val hash_thread : Statekey.h -> thread -> unit
(** Fuel, registers and the continuation key. *)

val key :
  Symmetry.t option -> Statekey.h -> (Statekey.h -> 'a -> unit) ->
  'a array -> Statekey.t
(** [key sym h hash threads] folds every thread into [h] with [hash] and
    finishes it. Under [Some sym] each thread is hashed into its own
    sub-key and the sub-keys are absorbed in orbit-canonical order
    ({!Symmetry.fold_threads}): sound when nothing outside the threads
    names a thread index. *)
