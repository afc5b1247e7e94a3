(** Value and boolean expressions of the kernel-code DSL.

    Expressions are evaluated against a thread-local register environment.
    For the relaxed-memory executors, each register additionally carries a
    {e view} (a timestamp upper bound on the messages its value derives
    from); expression evaluation propagates views so that data and address
    dependencies can be enforced exactly as the Armv8 model requires. *)

type vexp =
  | Const of int
  | Reg of Reg.t
  | Add of vexp * vexp
  | Sub of vexp * vexp
  | Mul of vexp * vexp
  | Div of vexp * vexp  (** traps (Panic) on division by zero *)
[@@deriving show, eq]

type cmp = Eq | Ne | Lt | Le | Gt | Ge [@@deriving show, eq]

type bexp =
  | Bool of bool
  | Cmp of cmp * vexp * vexp
  | And of bexp * bexp
  | Or of bexp * bexp
  | Not of bexp
[@@deriving show, eq]

(** Addresses: a base object plus a computed index. A register occurring in
    [offset] induces an address dependency. *)
type aexp = { abase : string; offset : vexp } [@@deriving show, eq]

exception Eval_panic of string

(* Convenience constructors. *)
let c n = Const n
let r x = Reg x
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
let ( * ) a b = Mul (a, b)
let ( / ) a b = Div (a, b)
let ( = ) a b = Cmp (Eq, a, b)
let ( <> ) a b = Cmp (Ne, a, b)
let ( < ) a b = Cmp (Lt, a, b)
let ( <= ) a b = Cmp (Le, a, b)
let ( > ) a b = Cmp (Gt, a, b)
let ( >= ) a b = Cmp (Ge, a, b)
let ( && ) a b = And (a, b)
let ( || ) a b = Or (a, b)
let not b = Not b

let at ?(offset = Const 0) abase = { abase; offset }

(** [eval_v lookup e] evaluates [e], returning [(value, view)] where [view]
    is the join of the views of all registers read. [lookup] maps a register
    to its current [(value, view)] pair. *)
let rec eval_v (lookup : Reg.t -> int * int) (e : vexp) : int * int =
  match e with
  | Const n -> (n, 0)
  | Reg x -> lookup x
  | Add (a, b) -> bin lookup Stdlib.( + ) a b
  | Sub (a, b) -> bin lookup Stdlib.( - ) a b
  | Mul (a, b) -> bin lookup Stdlib.( * ) a b
  | Div (a, b) ->
      let vb, wb = eval_v lookup b in
      if Stdlib.( = ) vb 0 then raise (Eval_panic "division by zero")
      else
        let va, wa = eval_v lookup a in
        (Stdlib.( / ) va vb, Int.max wa wb)

and bin lookup op a b =
  let va, wa = eval_v lookup a in
  let vb, wb = eval_v lookup b in
  (op va vb, Int.max wa wb)

let eval_cmp op a b =
  match op with
  | Eq -> Stdlib.( = ) a b
  | Ne -> Stdlib.( <> ) a b
  | Lt -> Stdlib.( < ) a b
  | Le -> Stdlib.( <= ) a b
  | Gt -> Stdlib.( > ) a b
  | Ge -> Stdlib.( >= ) a b

(** [eval_b lookup b] evaluates a boolean expression to [(truth, view)]. *)
let rec eval_b (lookup : Reg.t -> int * int) (b : bexp) : bool * int =
  match b with
  | Bool v -> (v, 0)
  | Cmp (op, a, b) ->
      let va, wa = eval_v lookup a in
      let vb, wb = eval_v lookup b in
      (eval_cmp op va vb, Int.max wa wb)
  | And (a, b) ->
      let va, wa = eval_b lookup a in
      let vb, wb = eval_b lookup b in
      (Stdlib.( && ) va vb, Int.max wa wb)
  | Or (a, b) ->
      let va, wa = eval_b lookup a in
      let vb, wb = eval_b lookup b in
      (Stdlib.( || ) va vb, Int.max wa wb)
  | Not a ->
      let va, wa = eval_b lookup a in
      (Stdlib.not va, wa)

(** [eval_addr lookup a] resolves an address expression to a concrete
    location and the address-dependency view. *)
let eval_addr (lookup : Reg.t -> int * int) (a : aexp) : Loc.t * int =
  let idx, view = eval_v lookup a.offset in
  (Loc.v ~index:idx a.abase, view)

(** Registers syntactically mentioned by an expression (for static
    dependency analysis in the condition checkers). *)
let rec regs_of_vexp = function
  | Const _ -> []
  | Reg x -> [ x ]
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      regs_of_vexp a @ regs_of_vexp b

let rec regs_of_bexp = function
  | Bool _ -> []
  | Cmp (_, a, b) -> regs_of_vexp a @ regs_of_vexp b
  | And (a, b) | Or (a, b) -> regs_of_bexp a @ regs_of_bexp b
  | Not a -> regs_of_bexp a
