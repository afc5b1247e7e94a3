(** 128-bit structural state keys for exploration memoization. See the
    interface for the design; the canonical term traversal below is the
    single source of truth shared with {!Fingerprint} via {!sink}. *)

(* ------------------------------------------------------------------ *)
(* Incremental hasher: two independent FNV-style streams over native   *)
(* ints, finalized with a splitmix-style avalanche. 126 effective bits *)
(* make accidental collisions (which would silently merge two distinct *)
(* states) astronomically unlikely; the golden-digest parity tests     *)
(* cross-check the whole corpus against the string-keyed seed.         *)
(* ------------------------------------------------------------------ *)

type t = { h0 : int; h1 : int }

let equal a b = a.h0 = b.h0 && a.h1 = b.h1
let hash a = a.h0

let compare a b =
  let c = Int.compare a.h0 b.h0 in
  if c <> 0 then c else Int.compare a.h1 b.h1

let pp fmt k = Format.fprintf fmt "%016x%016x" k.h0 k.h1

type h = { mutable a : int; mutable b : int }

(* 64-bit FNV prime for the primary stream; a distinct large odd prime
   for the secondary one so the streams never degenerate together. *)
let p0 = 0x100000001b3
let p1 = 0x27d4eb2f165667c5 land max_int

let fresh () = { a = 0x0cf5ad432745937f; b = 0x2545f4914f6cdd1d }

let int h n =
  h.a <- (h.a lxor n) * p0;
  h.b <- (h.b lxor (n + 0x9e3779b9)) * p1

(* [int] over every element, with the two streams in locals rather than
   in [h]'s fields *)
let ints h arr =
  let a = ref h.a and b = ref h.b in
  for k = 0 to Array.length arr - 1 do
    let n = Array.unsafe_get arr k in
    a := (!a lxor n) * p0;
    b := (!b lxor (n + 0x9e3779b9)) * p1
  done;
  h.a <- !a;
  h.b <- !b

let char h c = int h (Char.code c + 0x100)

(* raw bytes, one step per byte, no length prefix *)
let str_bytes h s =
  for i = 0 to String.length s - 1 do
    let n = Char.code (String.unsafe_get s i) in
    h.a <- (h.a lxor n) * p0;
    h.b <- (h.b lxor (n + 1)) * p1
  done

let str h s =
  int h (String.length s);
  str_bytes h s

(* splitmix64-style finalizer, constants truncated to OCaml's 63-bit
   ints (still large odd multipliers, which is all the mix needs) *)
let mix64 x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x3f58476d1ce4e5b9 in
  let x = x lxor (x lsr 27) in
  let x = x * 0x14d049bb133111eb in
  x lxor (x lsr 31)

let finish h =
  let h0 = mix64 h.a in
  (* 0 in the first word is the empty-slot marker of {!Table} *)
  let h0 = if h0 = 0 then 0x9e3779b9 else h0 in
  { h0; h1 = mix64 (h.b + (h.a lsl 1) + 1) }

(* fold a finished key into another stream — used by the symmetry layer
   to combine per-thread sub-keys in orbit-canonical order *)
let absorb h k =
  int h k.h0;
  int h k.h1

(* ------------------------------------------------------------------ *)
(* Canonical term traversal over an abstract byte/int sink.            *)
(* Every encoder is length-prefixed and tag-disambiguated so distinct  *)
(* terms never serialize to the same token stream. With a Buffer sink  *)
(* this reproduces the historical Fingerprint bytes exactly; with a    *)
(* hash sink the tokens feed the two FNV streams directly, with no     *)
(* intermediate string allocation.                                     *)
(* ------------------------------------------------------------------ *)

type sink = {
  put_char : char -> unit;
  put_str : string -> unit;  (** raw bytes, no length prefix *)
  put_int : int -> unit;  (** raw integer token *)
}

let buffer_sink buf =
  { put_char = Buffer.add_char buf;
    put_str = Buffer.add_string buf;
    put_int = (fun n -> Buffer.add_string buf (string_of_int n)) }

let hash_sink h =
  { put_char = char h;
    put_str = str_bytes h;
    put_int = int h }

let emit_str k s =
  k.put_int (String.length s);
  k.put_char ':';
  k.put_str s

let emit_int k n =
  k.put_char 'i';
  k.put_int n;
  k.put_char ';'

let rec emit_vexp k (e : Expr.vexp) =
  match e with
  | Expr.Const n ->
      k.put_char 'C';
      emit_int k n
  | Expr.Reg r ->
      k.put_char 'R';
      emit_str k (Reg.name r)
  | Expr.Add (a, b) ->
      k.put_char '+';
      emit_vexp k a;
      emit_vexp k b
  | Expr.Sub (a, b) ->
      k.put_char '-';
      emit_vexp k a;
      emit_vexp k b
  | Expr.Mul (a, b) ->
      k.put_char '*';
      emit_vexp k a;
      emit_vexp k b
  | Expr.Div (a, b) ->
      k.put_char '/';
      emit_vexp k a;
      emit_vexp k b

let emit_cmp k (c : Expr.cmp) =
  k.put_char
    (match c with
    | Expr.Eq -> '='
    | Expr.Ne -> '!'
    | Expr.Lt -> '<'
    | Expr.Le -> 'l'
    | Expr.Gt -> '>'
    | Expr.Ge -> 'g')

let rec emit_bexp k (e : Expr.bexp) =
  match e with
  | Expr.Bool b ->
      k.put_char 'B';
      k.put_char (if b then '1' else '0')
  | Expr.Cmp (c, a, b) ->
      k.put_char 'c';
      emit_cmp k c;
      emit_vexp k a;
      emit_vexp k b
  | Expr.And (a, b) ->
      k.put_char '&';
      emit_bexp k a;
      emit_bexp k b
  | Expr.Or (a, b) ->
      k.put_char '|';
      emit_bexp k a;
      emit_bexp k b
  | Expr.Not a ->
      k.put_char '~';
      emit_bexp k a

let emit_aexp k (a : Expr.aexp) =
  emit_str k a.Expr.abase;
  emit_vexp k a.Expr.offset

let emit_order k (o : Instr.order) =
  k.put_char
    (match o with
    | Instr.Plain -> 'p'
    | Instr.Acquire -> 'a'
    | Instr.Release -> 'r'
    | Instr.Acq_rel -> 'x')

let emit_barrier k (b : Instr.barrier) =
  k.put_char
    (match b with
    | Instr.Dmb_full -> 'F'
    | Instr.Dmb_ld -> 'L'
    | Instr.Dmb_st -> 'S'
    | Instr.Isb -> 'I')

let emit_bases k bs =
  emit_int k (List.length bs);
  List.iter (emit_str k) bs

let rec emit_instr k (i : Instr.t) =
  match i with
  | Instr.Load (r, a, o) ->
      k.put_str "ld";
      emit_str k (Reg.name r);
      emit_aexp k a;
      emit_order k o
  | Instr.Store (a, e, o) ->
      k.put_str "st";
      emit_aexp k a;
      emit_vexp k e;
      emit_order k o
  | Instr.Faa (r, a, e, o) ->
      k.put_str "fa";
      emit_str k (Reg.name r);
      emit_aexp k a;
      emit_vexp k e;
      emit_order k o
  | Instr.Xchg (r, a, e, o) ->
      k.put_str "xc";
      emit_str k (Reg.name r);
      emit_aexp k a;
      emit_vexp k e;
      emit_order k o
  | Instr.Cas (r, a, exp, des, o) ->
      k.put_str "cs";
      emit_str k (Reg.name r);
      emit_aexp k a;
      emit_vexp k exp;
      emit_vexp k des;
      emit_order k o
  | Instr.Barrier b ->
      k.put_str "ba";
      emit_barrier k b
  | Instr.Move (r, e) ->
      k.put_str "mv";
      emit_str k (Reg.name r);
      emit_vexp k e
  | Instr.If (c, t, e) ->
      k.put_str "if";
      emit_bexp k c;
      emit_instrs k t;
      emit_instrs k e
  | Instr.While (c, body) ->
      k.put_str "wh";
      emit_bexp k c;
      emit_instrs k body
  | Instr.Pull bs ->
      k.put_str "pl";
      emit_bases k bs
  | Instr.Push bs ->
      k.put_str "ps";
      emit_bases k bs
  | Instr.Tlbi None -> k.put_str "t*"
  | Instr.Tlbi (Some a) ->
      k.put_str "ta";
      emit_aexp k a
  | Instr.Panic -> k.put_str "pa"
  | Instr.Nop -> k.put_str "np"

and emit_instrs k is =
  emit_int k (List.length is);
  List.iter (emit_instr k) is

let emit_loc k (l : Loc.t) =
  emit_str k (Loc.base l);
  emit_int k (Loc.index l)

(* Hasher-direct conveniences for the model state-key hot paths. These
   need not match the Buffer byte encoding — only be injective enough —
   so scalars mix as single words instead of decimal tokens. *)

let loc h (l : Loc.t) =
  str h (Loc.base l);
  int h (Loc.index l)

let instr h i = emit_instr (hash_sink h) i

(* ------------------------------------------------------------------ *)
(* Open-addressing hash table keyed on the 128-bit keys.               *)
(* Keys live unboxed in a flat int array (two words per slot, first    *)
(* word 0 = empty); values in a parallel array. Linear probing, grow   *)
(* at 3/4 load.                                                        *)
(* ------------------------------------------------------------------ *)

module Table = struct
  type key = t

  type 'a table = {
    dummy : 'a;
    mutable keys : int array;  (* 2 * cap; slot i at indices 2i, 2i+1 *)
    mutable vals : 'a array;  (* cap *)
    mutable size : int;
    mutable mask : int;  (* cap - 1; cap is a power of two *)
  }

  type 'a t = 'a table

  let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

  let create ?(initial = 1024) ~dummy () =
    let cap = pow2 (max 16 initial) 16 in
    { dummy;
      keys = Array.make (2 * cap) 0;
      vals = Array.make cap dummy;
      size = 0;
      mask = cap - 1 }

  let length t = t.size
  let capacity t = t.mask + 1

  (* slot of the key with words [h0], [h1] in [keys]: its index if
     present, else the first free slot of its probe sequence *)
  let rec probe_from keys mask h0 h1 i =
    let k0 = Array.unsafe_get keys (2 * i) in
    if k0 = 0 then i
    else if k0 = h0 && Array.unsafe_get keys ((2 * i) + 1) = h1 then i
    else probe_from keys mask h0 h1 ((i + 1) land mask)

  let probe keys mask (key : key) =
    probe_from keys mask key.h0 key.h1 (key.h0 land mask)

  let grow t =
    let cap = (t.mask + 1) * 2 in
    let keys = Array.make (2 * cap) 0 in
    let vals = Array.make cap t.dummy in
    let mask = cap - 1 in
    for i = 0 to t.mask do
      let h0 = t.keys.(2 * i) and h1 = t.keys.((2 * i) + 1) in
      if h0 <> 0 then begin
        let j = probe_from keys mask h0 h1 (h0 land mask) in
        keys.(2 * j) <- h0;
        keys.((2 * j) + 1) <- h1;
        vals.(j) <- t.vals.(i)
      end
    done;
    t.keys <- keys;
    t.vals <- vals;
    t.mask <- mask

  let find_or_add t (key : key) v =
    let i = probe t.keys t.mask key in
    if Array.unsafe_get t.keys (2 * i) <> 0 then `Found t.vals.(i)
    else begin
      t.keys.(2 * i) <- key.h0;
      t.keys.((2 * i) + 1) <- key.h1;
      t.vals.(i) <- v;
      t.size <- t.size + 1;
      if t.size * 4 > (t.mask + 1) * 3 then grow t;
      `Added
    end

  let update t (key : key) v =
    let i = probe t.keys t.mask key in
    if Array.unsafe_get t.keys (2 * i) <> 0 then t.vals.(i) <- v

  let mem t key =
    let i = probe t.keys t.mask key in
    Array.unsafe_get t.keys (2 * i) <> 0
end
