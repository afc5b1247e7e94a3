(** The one instruction decoder of the explicit-state executors ({!Sc},
    {!Tso}, {!Pushpull}, {!Promising}).

    The four models differ only in what memory is and in what registers
    carry: one global map (SC), a map behind per-thread store buffers
    (TSO), a map plus ghost ownership (push/pull), or an append-only
    message list with per-thread views (Promising). Everything a thread
    does on its own lives here once: operand evaluation with views,
    control flow with loop fuel, and the rule that an evaluation fault
    panics the thread. {!decode} runs a thread's next instruction up to
    its memory access and hands that access to the model as one
    {!request}, carrying the views Promising orders by; the model
    applies it to its own state. This is the split of the SPARC-TSO and
    IMM formalisations: one thread-local semantics, with the memory
    subsystem as the only part that differs between models.

    The rest of the module serves the SC-family models, whose registers
    carry no views: their register file ({!thread}), flat memory, POR
    labels, the expansion loop of {!Sc} and {!Pushpull}, the per-thread
    state key and the memory-map hash, so a model's key adds only its
    own extras (store buffers; poison and owners). *)

(** The arithmetic of an atomic read-modify-write, operands evaluated. *)
type rmw =
  | Add of int  (** fetch-and-add *)
  | Swap of int  (** exchange *)
  | Cas of int * int  (** compare-and-swap: expected, desired *)

(** What one instruction asks of the model. A view is the join of the
    views of the registers an operand reads: [va] is the address's, [vd]
    the data's (for a CAS, the join of its expected and desired
    values'). *)
type request =
  | Local of { guard : int; code : Cont.t; fuel : int }
      (** [Nop], a branch or a loop step: nothing outside the thread,
          which continues with [code] and [fuel]. [guard] is the view of
          the condition; 0 for [Nop]. *)
  | Assign of { dst : Reg.t; value : int; view : int }  (** [Move] *)
  | Read of { dst : Reg.t; loc : Loc.t; ord : Instr.order; va : int }
      (** load the location into [dst] *)
  | Write of {
      loc : Loc.t; value : int; ord : Instr.order; va : int; vd : int }
  | Rmw of {
      dst : Reg.t; loc : Loc.t; op : rmw; ord : Instr.order; va : int;
      vd : int }
      (** atomic: the old value goes to [dst], {!rmw} gives the value
          stored *)
  | Fence of Instr.barrier
  | Pull of string list
  | Push of string list
  | Tlbi of Loc.t option  (** the invalidated entry; [None] = all *)

exception Thread_panic
(** The thread panicked: an explicit [Panic], or a fault (division by
    zero) while evaluating any operand, address or TLBI scope. *)

exception Out_of_fuel
(** A [While] whose guard holds has no fuel left. *)

val decode : (Reg.t -> int * int) -> Cont.t -> fuel:int -> request
(** [decode env code ~fuel] runs the first instruction of [code], with
    [env] giving each register's value and view. Every request but
    [Local] continues with [code]'s tail.
    @raise Thread_panic as described there.
    @raise Out_of_fuel as described there.
    @raise Invalid_argument on empty [code]. *)

val rmw : rmw -> int -> int option
(** [rmw op old]: the value the RMW stores, or [None] for a [Cas] whose
    comparison failed (it stores nothing). *)

(** {2 The SC-family models} *)

type thread = {
  code : Cont.t;
  regs : int Reg.Map.t;  (** unset registers read as 0 *)
  fuel : int;  (** loop iterations left *)
}

val step : thread -> (request * thread) option
(** {!decode} under views of 0: the thread's request, and the thread
    advanced past it ([regs] already updated for [Assign]; for [Read]
    and [Rmw] the model stores the value with {!set_reg}). [None] on
    {!Out_of_fuel}.
    @raise Thread_panic as {!decode} does.
    @raise Invalid_argument on a finished thread. *)

val lookup_reg : int Reg.Map.t -> Reg.t -> int
val set_reg : thread -> Reg.t -> int -> thread

val read_mem : int Loc.Map.t -> Loc.t -> int
(** Unwritten locations read as 0. *)

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

val observe :
  Prog.t -> thread array -> int Loc.Map.t -> Behavior.status ->
  Behavior.outcome
(** Observation over one flat memory map. *)

val transition :
  thread -> observe:(Behavior.status -> Behavior.outcome) ->
  (request -> thread -> ('s, 'l) Engine.step) -> ('s, 'l) Engine.step
(** One thread's instruction transition: [apply req t] for its request
    [req], [t] being the thread advanced past it ({!step}); for a thread
    out of fuel or panicking, the [Fuel_exhausted] or [Panicked] outcome
    instead. *)

val expand :
  thread array -> observe:(Behavior.status -> Behavior.outcome) ->
  (int -> request -> thread -> ('s, 'l) Engine.step) ->
  ('s, 'l) Engine.expansion
(** The expansion of an SC-family state with these threads: [Terminal]
    with the [Normal] outcome once no thread has code left, otherwise
    one {!transition} per thread with code left, highest index first,
    thread [i]'s made by [apply i].

    {!Tso} does not use it: its threads also drain store buffers, and
    it offers them lowest index first, each thread's drain before its
    instruction. The order a search takes transitions in moves its
    visited and POR-pruned counts, so Tso builds its own list around
    {!transition}. *)

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
