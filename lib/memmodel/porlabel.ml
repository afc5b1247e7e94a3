(** Transition footprints for partial-order reduction. See the
    interface for the commutativity contract each field carries. *)

type t = {
  tid : int;
  disc : int;
  silent : bool;
  global : bool;
  alloc : bool;
  reads : Loc.t list;
  writes : Loc.t list;
  obases : string list;
  otransfer : string list;
  cert_read : string list;
  cert_write : string list;
}

let empty ~tid =
  { tid;
    disc = 0;
    silent = false;
    global = false;
    alloc = false;
    reads = [];
    writes = [];
    obases = [];
    otransfer = [];
    cert_read = [];
    cert_write = [] }

let silent ~tid = { (empty ~tid) with silent = true }
let private_ ~tid = empty ~tid
let read ~tid loc = { (empty ~tid) with reads = [ loc ] }
let write ~tid loc = { (empty ~tid) with writes = [ loc ] }

let rmw ~tid loc =
  { (empty ~tid) with reads = [ loc ]; writes = [ loc ] }

let sync ~tid = { (empty ~tid) with global = true }

(* A label with no footprint at all: commutes even with [global]
   labels. [silent] labels are quiet by construction, but a quiet label
   need not be silent (e.g. an observable register move). *)
let quiet l =
  match l with
  | { global = false; alloc = false; reads = []; writes = []; obases = [];
      otransfer = []; cert_read = []; cert_write = []; _ } ->
      true
  | _ -> false

let equal a b =
  a == b
  || a.tid = b.tid && a.disc = b.disc && a.silent = b.silent
     && a.global = b.global && a.alloc = b.alloc
     && List.equal Loc.equal a.reads b.reads
     && List.equal Loc.equal a.writes b.writes
     && List.equal String.equal a.obases b.obases
     && List.equal String.equal a.otransfer b.otransfer
     && List.equal String.equal a.cert_read b.cert_read
     && List.equal String.equal a.cert_write b.cert_write

let rec mem_loc x = function
  | [] -> false
  | y :: l -> Loc.equal x y || mem_loc x l

let rec disjoint_loc xs ys =
  match xs with [] -> true | x :: l -> (not (mem_loc x ys)) && disjoint_loc l ys

let rec mem_str x = function
  | [] -> false
  | y :: l -> String.equal x y || mem_str x l

let rec disjoint_str xs ys =
  match xs with [] -> true | x :: l -> (not (mem_str x ys)) && disjoint_str l ys

let independent a b =
  a.tid <> b.tid
  && ((not a.global) || quiet b)
  && ((not b.global) || quiet a)
  && (not (a.alloc && b.alloc))
  && disjoint_loc a.writes b.reads
  && disjoint_loc a.writes b.writes
  && disjoint_loc b.writes a.reads
  && disjoint_str a.otransfer b.obases
  && disjoint_str a.otransfer b.otransfer
  && disjoint_str b.otransfer a.obases
  && disjoint_str a.cert_write b.cert_read
  && disjoint_str b.cert_write a.cert_read

let ample l = l.silent

let pp fmt l =
  let locs prefix = function
    | [] -> ""
    | ls ->
        Format.asprintf "%s%a" prefix
          (Format.pp_print_list
             ~pp_sep:(fun f () -> Format.fprintf f ",")
             Loc.pp)
          ls
  in
  let strs prefix = function
    | [] -> ""
    | ss -> prefix ^ String.concat "," ss
  in
  Format.fprintf fmt "t%d:%s%s%s%s%s%s%s%s%s" l.tid
    (if l.silent then "silent"
     else if l.global then "sync"
     else if quiet l then "private"
     else "")
    (locs "R" l.reads) (locs "W" l.writes)
    (if l.alloc then "@" else "")
    (strs "o" l.obases) (strs "x" l.otransfer)
    (strs "cr" l.cert_read) (strs "cw" l.cert_write)
    (if l.disc <> 0 then Format.asprintf "#%d" l.disc else "")
