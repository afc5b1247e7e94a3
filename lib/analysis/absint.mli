(** Generic forward-dataflow fixpoint engine over {!Cfg.graph}.

    Every lint pass decides its wDRF condition by abstract
    interpretation: the pass supplies a join-semilattice {!DOMAIN} and
    the worklist solver computes one invariant per program point in time
    linear in the CFG (times lattice height, bounded by widening at
    residual loop heads). Loops are covered soundly, including defects
    that only appear on a later iteration.

    The engine also computes the {e reachability} layer every pass
    shares: a must-constants analysis over registers ({!flow}) that
    decides which guard edges are live, which nodes are reachable, and —
    via the per-node gate stacks — which nodes are {e definitely
    reached} (executed on every run). A must-level abstract defect at a
    definitely-reached node is promoted to [Definite] and is guaranteed
    a dynamic witness. *)

(** A forward join-semilattice abstract domain. *)
module type DOMAIN = sig
  type t

  val bottom : t
  (** No information: the state of a not-yet-reached program point.
      [transfer] is never applied to [bottom] — the solver only
      propagates from reached nodes. *)

  val join : t -> t -> t
  val leq : t -> t -> bool

  val transfer : Cfg.label -> t -> t
  (** Abstract effect of one CFG edge. *)

  val widen : t -> t -> t
  (** [widen old next] — applied at residual loop heads once the head
      has been updated {!widen_delay} times, to force termination on
      domains of unbounded height. Finite domains can use [join]. *)
end

type stats = {
  st_nodes : int;  (** CFG nodes *)
  st_edges : int;  (** CFG edges *)
  st_iters : int;  (** edge relaxations performed by the worklist *)
  st_widens : int;  (** widening applications *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

val widen_delay : int
(** Loop-head updates tolerated before widening kicks in (2: enough for
    a must-constants analysis to stabilize simple counters first). *)

module Solve (D : DOMAIN) : sig
  val run :
    ?live:(src:int -> Cfg.label -> bool) ->
    Cfg.graph ->
    init:D.t ->
    D.t array * stats
  (** Worklist fixpoint: returns the per-node invariant map (indexed by
      node id; unreached nodes hold [D.bottom]) and solver statistics.
      [live] prunes edges the reachability layer has proved dead —
      e.g. the body of a loop whose guard is must-false. *)
end

(** {2 Shared must-memory lattice}

    Per-cell constants ({!Cfg.Amem.aval}) with a default (program-init)
    value for untouched cells, per-base smudging for non-constant
    offsets, and pointwise join ([Known n] values that disagree degrade
    to [Unknown_val]). Used by the Write-Once and TLBI domains. *)

module Mem : sig
  type t

  val init : default:(string * int -> Cfg.Amem.aval) -> smudged:string list -> t
  val read : t -> string * int -> Cfg.Amem.aval
  val write : t -> string * int -> Cfg.Amem.aval -> t
  val smudge : t -> string -> t
  val join : t -> t -> t
  val leq : t -> t -> bool
end

(** {2 Reachability layer} *)

type flow = {
  f_graph : Cfg.graph;
  f_live : src:int -> Cfg.label -> bool;  (** edge liveness predicate *)
  f_reachable : int -> bool;
  f_dr : int -> bool;
      (** definitely reached: reachable, and every enclosing gate's
          condition is must-decided in the gate's direction *)
  f_stats : stats;
}

val flow : Cfg.graph -> flow
(** Run the must-constants register analysis over [g] and package the
    liveness/reachability/definitely-reached views derived from it. *)
