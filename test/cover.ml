(* Cover counts for the random tests, after SymbiYosys's cover task: a
   generator counts what it draws under a label ("device 2", "attach
   Ok"), and a test pins a floor on each label, so a branch the random
   traffic never reaches fails instead of passing unexercised. *)

type t = (string, int) Hashtbl.t

let create () : t = Hashtbl.create 64
let count (t : t) label = Option.value ~default:0 (Hashtbl.find_opt t label)
let add (t : t) label n = Hashtbl.replace t label (count t label + n)
let hit t label = add t label 1

(* The labels whose count is below their floor, with that count. *)
let missed t floors =
  List.filter_map
    (fun (label, floor) ->
      let n = count t label in
      if n < floor then Some (label, n) else None)
    floors

(* Fails the current Alcotest case, naming every missed floor. *)
let check t floors =
  Alcotest.(check (list (pair string int))) "labels below their floor" []
    (missed t floors)
