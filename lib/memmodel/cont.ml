(** Code continuations with keys and footprints computed at
    construction. See the interface. *)

type t =
  | Nil
  | Cons of {
      instr : Instr.t;
      rest : t;
      key : Statekey.t;
      stores : string list;
      accesses : string list;
      entries : entries;
    }

(* The continuations {!branch} and {!loop} have built, [Nil] until then.
   A built entry is [Nil] only for an empty [If] branch at the end of the
   code, which costs nothing to build again. *)
and entries = { mutable entered : t; mutable entered_else : t }

let nil_key =
  let h = Statekey.fresh () in
  Statekey.char h 'N';
  Statekey.finish h

let key = function Nil -> nil_key | Cons c -> c.key
let stores = function Nil -> [] | Cons c -> c.stores
let accesses = function Nil -> [] | Cons c -> c.accesses

(* [b] added to the sorted list [l]; [l] itself when already there *)
let add b l = if List.mem b l then l else List.merge String.compare [ b ] l

(* [i]'s store and access bases, branch and loop bodies included, added
   to [acc]. [Interp.decode] always yields a location on the address
   expression's static [abase], so these sets over-approximate the
   locations any run of the code can touch. *)
let rec footprint ((st, ac) as acc) (i : Instr.t) =
  match i with
  | Instr.Store (a, _, _) -> (add a.Expr.abase st, add a.Expr.abase ac)
  | Instr.Load (_, a, _)
  | Instr.Faa (_, a, _, _)
  | Instr.Xchg (_, a, _, _)
  | Instr.Cas (_, a, _, _, _) ->
      (st, add a.Expr.abase ac)
  | Instr.If (_, br_then, br_else) ->
      List.fold_left footprint (List.fold_left footprint acc br_then) br_else
  | Instr.While (_, body) -> List.fold_left footprint acc body
  | Instr.Barrier _ | Instr.Move _ | Instr.Pull _ | Instr.Push _
  | Instr.Tlbi _ | Instr.Panic | Instr.Nop ->
      acc

(* Shared by every node that is neither an [If] nor a [While]: never
   read or written. *)
let no_entries = { entered = Nil; entered_else = Nil }

(* The rest's key is a fixed-width prefix and an instruction's token
   stream is prefix-free, so distinct (rest, instr) pairs feed distinct
   streams: by induction, distinct lists hash distinct streams. *)
let cons instr rest =
  let h = Statekey.fresh () in
  Statekey.absorb h (key rest);
  Statekey.instr h instr;
  let stores, accesses = footprint (stores rest, accesses rest) instr in
  let entries =
    match instr with
    | Instr.If _ | Instr.While _ -> { entered = Nil; entered_else = Nil }
    | _ -> no_entries
  in
  Cons { instr; rest; key = Statekey.finish h; stores; accesses; entries }

let prepend is k = List.fold_right cons is k
let of_list is = prepend is Nil

(* Entries are written once, when first asked for. Two domains may race
   to build the same entry: both build key-equal continuations, and
   whichever write lands last is kept; neither result is wrong. *)
let branch k holds =
  match k with
  | Cons { instr = Instr.If (_, br_then, br_else); rest; entries; _ } ->
      if holds then begin
        if entries.entered == Nil then entries.entered <- prepend br_then rest;
        entries.entered
      end
      else begin
        if entries.entered_else == Nil then
          entries.entered_else <- prepend br_else rest;
        entries.entered_else
      end
  | _ -> invalid_arg "Cont.branch"

let loop k =
  match k with
  | Cons { instr = Instr.While (_, body); entries; _ } ->
      if entries.entered == Nil then entries.entered <- prepend body k;
      entries.entered
  | _ -> invalid_arg "Cont.loop"

let rec fold f acc = function
  | Nil -> acc
  | Cons { instr; rest; _ } -> fold f (f acc instr) rest

let is_empty = function Nil -> true | Cons _ -> false
let head = function Nil -> invalid_arg "Cont.head" | Cons c -> c.instr
let tail = function Nil -> invalid_arg "Cont.tail" | Cons c -> c.rest
