(** Multi-threaded DSL programs and their observables. *)

type thread = { tid : int; code : Instr.t list; comment : string }

type observable =
  | Obs_reg of int * Reg.t  (** final value of a register of thread [tid] *)
  | Obs_loc of Loc.t  (** final value of a shared location *)
[@@deriving show, eq, ord]

type t = {
  name : string;
  threads : thread list;
  init : (Loc.t * int) list;  (** initial memory; unlisted locations are 0 *)
  observables : observable list;
  shared_bases : string list;
      (** bases considered shared kernel state (footprint of the DRF check);
          empty means: every base written by more than one thread, or
          written by one and read by another. *)
}

let thread ?(comment = "") tid code = { tid; code; comment }

let make ?(init = []) ?(shared_bases = []) ~name ~observables threads =
  let tids = List.map (fun t -> t.tid) threads in
  let sorted = List.sort_uniq compare tids in
  if List.length sorted <> List.length tids then
    invalid_arg "Prog.make: duplicate thread ids";
  { name; threads; init; observables; shared_bases }

let n_threads t = List.length t.threads

let find_thread t tid = List.find (fun th -> th.tid = tid) t.threads

let thread_index t tid =
  match List.find_index (fun th -> th.tid = tid) t.threads with
  | Some i -> i
  | None -> invalid_arg "Prog.thread_index: unknown tid"

let observable_reg t idx r =
  match List.nth_opt t.threads idx with
  | Some th ->
      List.exists
        (function
          | Obs_reg (tid, r') -> tid = th.tid && Reg.name r' = Reg.name r
          | Obs_loc _ -> false)
        t.observables
  | None -> false

let init_value t loc =
  match List.assoc_opt loc t.init with Some v -> v | None -> 0

(** Locations appearing in [init] or observables — a seed set for memory. *)
let known_locs t =
  let obs =
    List.filter_map (function Obs_loc l -> Some l | Obs_reg _ -> None)
      t.observables
  in
  List.sort_uniq compare (List.map fst t.init @ obs)

(** Shared bases: the declared set, or inferred from per-thread footprints. *)
let shared_bases t =
  match t.shared_bases with
  | _ :: _ as declared -> declared
  | [] ->
      let per_thread =
        List.map (fun th -> List.sort_uniq compare (Instr.bases_list th.code))
          t.threads
      in
      let all = List.sort_uniq compare (List.concat per_thread) in
      List.filter
        (fun b ->
          let count =
            List.length (List.filter (fun bs -> List.mem b bs) per_thread)
          in
          count >= 2)
        all

let pp_observable fmt = function
  | Obs_reg (tid, r) -> Format.fprintf fmt "%d:%a" tid Reg.pp r
  | Obs_loc l -> Format.fprintf fmt "[%a]" Loc.pp l
