(** Exhaustive sequentially-consistent executor.

    Memory behaves as a single global map; at every step one thread executes
    its next instruction in program order (Lamport's SC). The executor
    explores {e all} interleavings by depth-first search with memoization on
    the full machine state, and returns the set of observable behaviors.

    Spin loops are unrolled up to a per-thread [fuel]; paths that exhaust
    fuel are reported as {!Behavior.Fuel_exhausted} rather than dropped. *)

type state = { mem : int Loc.Map.t; threads : Interp.thread array }

let initial_state ~fuel prog =
  { mem = Interp.init_mem prog; threads = Interp.init_threads ~fuel prog }

(* The executor is an instance of the shared exploration engine through
   the SC-family expansion loop ({!Interp.expand}): one transition per
   runnable thread, its request applied to the one global map. *)
module Model = struct
  type ctx = { prog : Prog.t; sym : Symmetry.t option }
  type nonrec state = state

  let sym ctx = ctx.sym

  (* Orbit-canonical under [sym]: nothing thread-local in SC escapes the
     thread, so the per-thread sub-key covers everything that
     distinguishes interchangeable threads. *)
  let key ctx st =
    let h = Statekey.fresh () in
    Interp.hash_mem h st.mem;
    Interp.key ctx.sym h Interp.hash_thread st.threads

  let expand ctx (st : state) : (state, Porlabel.t) Engine.expansion =
    Interp.expand st.threads
      ~observe:(Interp.observe ctx.prog st.threads st.mem)
      (fun i req t ->
        let mem, t = Interp.access st.mem t req in
        let threads = Array.copy st.threads in
        threads.(i) <- t;
        Engine.Step (Interp.label ctx.prog i req, { mem; threads }))
end

module E = Engine.Make (Model)

(** [run_stats ?fuel ?jobs ?deadline ?por ?sym prog] explores all SC
    interleavings of [prog] and returns its behavior set with exploration
    statistics. [por] (default on) applies sleep-set/ample partial-order
    reduction; [sym] (default on) collapses thread-permuted states of
    symmetric thread groups — same behavior set either way. *)
let run_stats ?(fuel = 64) ?(jobs = 1) ?deadline ?por ?(sym = true)
    (prog : Prog.t) : Behavior.t * Engine.stats =
  let ctx =
    { Model.prog; sym = (if sym then Symmetry.detect prog else None) }
  in
  let r = E.explore ?deadline ?por ~jobs ~ctx (initial_state ~fuel prog) in
  (r.E.behaviors, r.E.stats)

(** [run ?fuel ?jobs ?deadline prog] explores all SC interleavings of
    [prog] and returns its behavior set. *)
let run ?fuel ?jobs ?deadline ?por ?sym (prog : Prog.t) : Behavior.t =
  fst (run_stats ?fuel ?jobs ?deadline ?por ?sym prog)
