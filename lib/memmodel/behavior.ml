(** Observable behaviors of a program execution, and behavior sets.

    A behavior is the vector of observable values at the end of an
    execution, together with a status flag: whether some thread panicked, or
    exploration fuel ran out on that path (spin loops are unrolled only up
    to the executor's fuel; fuel-exhausted paths are reported separately so
    that bounded exploration never silently drops outcomes). *)

type status = Normal | Panicked | Fuel_exhausted [@@deriving show, eq, ord]

type outcome = {
  values : (Prog.observable * int) list;  (** sorted by observable *)
  status : status;
}
[@@deriving eq, ord]

let outcome ?(status = Normal) values =
  { values = List.sort (fun (a, _) (b, _) -> Prog.compare_observable a b) values;
    status }

let pp_outcome fmt o =
  let pp_kv fmt (obs, v) =
    Format.fprintf fmt "%a=%d" Prog.pp_observable obs v
  in
  Format.fprintf fmt "{%a}%s"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_kv)
    o.values
    (match o.status with
    | Normal -> ""
    | Panicked -> " PANIC"
    | Fuel_exhausted -> " FUEL")

let observe (prog : Prog.t) ~reg ~loc status =
  outcome ~status
    (List.map
       (fun obs ->
         ( obs,
           match obs with
           | Prog.Obs_reg (tid, r) -> reg (Prog.thread_index prog tid) r
           | Prog.Obs_loc l -> loc l ))
       prog.Prog.observables)

module Outcome_set = Set.Make (struct
  type t = outcome

  let compare = compare_outcome
end)

type t = Outcome_set.t

let empty = Outcome_set.empty
let add = Outcome_set.add
let elements = Outcome_set.elements
let cardinal = Outcome_set.cardinal
let mem = Outcome_set.mem
let union = Outcome_set.union

(** [subset a b] — every behavior of [a] is a behavior of [b]. This is the
    executable form of the paper's Theorem 1: for wDRF programs,
    [subset (run_promising p) (run_sc p)] must hold. *)
let subset = Outcome_set.subset

let equal = Outcome_set.equal

(** Behaviors in [a] that are not in [b]: the relaxed-memory-only witnesses
    exhibited when a program violates the wDRF conditions. *)
let diff = Outcome_set.diff

let exists_outcome pred (t : t) = Outcome_set.exists pred t

(** Does some [Ok] outcome satisfy [pred] on its value vector? (litmus
    "exists" clauses) *)
let satisfiable pred (t : t) =
  Outcome_set.exists
    (fun o -> o.status = Normal && pred (fun obs -> List.assoc_opt obs o.values))
    t

let any_panic (t : t) = Outcome_set.exists (fun o -> o.status = Panicked) t
let any_fuel_exhausted (t : t) =
  Outcome_set.exists (fun o -> o.status = Fuel_exhausted) t

let pp fmt (t : t) =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list pp_outcome)
    (elements t)
