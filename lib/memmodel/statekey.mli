(** 128-bit structural state keys and the interning table built on them.

    The exploration engine memoizes visited states. Historically each
    model rendered its state to a string ([key : state -> string], built
    with [Buffer]/[Printf]/[Marshal]) and the engine deduplicated in a
    [Hashtbl] over those strings — megabytes of short-lived garbage per
    run. This module replaces that path:

    - {!h} is an incremental hasher: two independent FNV-style streams
      over native ints with a splitmix-style finalizer, yielding a
      126-bit {!t}. Models fold their state components into it directly,
      with no intermediate string.
    - {!Table} is an open-addressing hash table keyed on {!t}, storing
      the two key words unboxed in a flat [int array] — no per-entry
      allocation on the dedup hot path.

    Keying by hash instead of by content is hash compaction: a collision
    would silently merge two distinct states. With 126 well-mixed bits
    the probability is astronomically small for the state counts the
    engine reaches (< 1e-20 at 10^8 states); the golden-digest parity
    tests in [test/test_engine.ml] cross-check every corpus entry
    against the string-keyed seed behavior sets.

    This module also owns the canonical term traversal (instructions,
    expressions, locations) over an abstract {!sink}, shared by
    {!Fingerprint} (Buffer sink, byte-stable cache digests) and the
    model key functions (hash sink, no allocation). One traversal, two
    consumers — the encodings cannot drift apart. *)

type t
(** A 128-bit structural key (two 63-bit words, both avalanche-mixed). *)

val equal : t -> t -> bool
val hash : t -> int

val compare : t -> t -> int
(** Total order on keys (lexicographic on the two words). {!Symmetry}
    sorts per-thread sub-keys under it to pick a deterministic orbit
    representative. *)

val pp : Format.formatter -> t -> unit

(** {1 Incremental hashing} *)

type h
(** In-progress hash state. Not thread-safe; create one per key. *)

val fresh : unit -> h
val int : h -> int -> unit

val ints : h -> int array -> unit
(** [ints h a] is [Array.iter (int h) a], with the stream state kept in
    registers for the length of the array: the same key, at about half
    the cost per element. *)

val char : h -> char -> unit

val str : h -> string -> unit
(** Length-prefixed, so [str h "ab"; str h "c"] and [str h "a"; str h
    "bc"] produce different keys. *)

val finish : h -> t

val absorb : h -> t -> unit
(** Fold a finished key into an in-progress hash — how the symmetry
    layer combines per-thread sub-keys in orbit-canonical order. *)

(** {1 Canonical term traversal}

    The emitters below serialize DSL terms into a {!sink} using the
    historical length-prefixed, tag-disambiguated token encoding (see
    {!Fingerprint} for the stability contract). *)

type sink = {
  put_char : char -> unit;
  put_str : string -> unit;  (** raw bytes, no length prefix *)
  put_int : int -> unit;  (** raw integer token *)
}

val buffer_sink : Buffer.t -> sink
(** Writes the decimal/byte rendering used by {!Fingerprint} — the
    historical, digest-stable encoding. *)

val hash_sink : h -> sink
(** Feeds tokens straight into the two hash streams (ints mix as single
    words, not decimal strings). *)

val emit_str : sink -> string -> unit
val emit_int : sink -> int -> unit
val emit_vexp : sink -> Expr.vexp -> unit
val emit_bexp : sink -> Expr.bexp -> unit
val emit_aexp : sink -> Expr.aexp -> unit
val emit_bases : sink -> string list -> unit
val emit_instr : sink -> Instr.t -> unit
val emit_instrs : sink -> Instr.t list -> unit
val emit_loc : sink -> Loc.t -> unit

(** {1 Hasher-direct conveniences} — hot-path helpers for model key
    functions. *)

val loc : h -> Loc.t -> unit

val instr : h -> Instr.t -> unit
(** One instruction's canonical token stream; {!Cont} folds it into a
    continuation key once per built node. *)

(** {1 Interning table} *)

module Table : sig
  type key = t

  type 'a t
  (** Open-addressing (linear probing) table from {!key} to ['a]. Not
      thread-safe; the engine stripes several tables behind mutexes for
      shared parallel search. *)

  val create : ?initial:int -> dummy:'a -> unit -> 'a t
  (** [dummy] fills unoccupied value slots (never returned for a present
      key). *)

  val length : 'a t -> int
  (** Number of keys present — the occupancy the engine reports per
      seen-set stripe. *)

  val capacity : 'a t -> int
  (** Current slot count (a power of two; doubles on growth). Exposed so
      the stripe-stability test can force growth and assert that stripe
      assignment — which derives from {!val-hash} alone, never from
      capacity — is unaffected. *)

  val find_or_add : 'a t -> key -> 'a -> [ `Added | `Found of 'a ]
  (** One probe: if [key] is absent, bind it to the given value and
      return [`Added]; otherwise return the existing binding. *)

  val update : 'a t -> key -> 'a -> unit
  (** Rebind an existing key; no-op if absent. *)

  val mem : 'a t -> key -> bool
end
