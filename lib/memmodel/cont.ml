(** Code continuations with keys computed at construction. See the
    interface. *)

type t = Nil | Cons of { instr : Instr.t; rest : t; key : Statekey.t }

let nil_key =
  let h = Statekey.fresh () in
  Statekey.char h 'N';
  Statekey.finish h

let key = function Nil -> nil_key | Cons c -> c.key

(* The rest's key is a fixed-width prefix and an instruction's token
   stream is prefix-free, so distinct (rest, instr) pairs feed distinct
   streams: by induction, distinct lists hash distinct streams. *)
let cons instr rest =
  let h = Statekey.fresh () in
  Statekey.absorb h (key rest);
  Statekey.instr h instr;
  Cons { instr; rest; key = Statekey.finish h }

let prepend is k = List.fold_right cons is k
let of_list is = prepend is Nil

let rec fold f acc = function
  | Nil -> acc
  | Cons { instr; rest; _ } -> fold f (f acc instr) rest

let is_empty = function Nil -> true | Cons _ -> false
let head = function Nil -> invalid_arg "Cont.head" | Cons c -> c.instr
let tail = function Nil -> invalid_arg "Cont.tail" | Cons c -> c.rest
