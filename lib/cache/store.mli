(** Content-addressed verification-result cache — the disk tier.

    A cache key is a digest over everything a result can depend on:
    the program's content digest ({!Memmodel.Fingerprint.prog}), the
    model/job identifier, the engine budgets, and the engine version
    ({!Memmodel.Engine.version}). Because the exploration engine is pure
    and deterministic, a stored result is {e equal} to a recomputed one
    — the determinism argument is spelled out in DESIGN.md. The key
    deliberately excludes the [--jobs] fan-out (parallel search returns
    the same behavior set) and the program/job {e name}.

    This module is purely the persistent tier: every [find] opens the
    entry file, re-derives its checksum and re-parses the payload. The
    in-memory tier is {!Hot}, a sharded size-bounded LRU of decoded
    payloads layered in front of a store. The on-disk format is
    versioned and checksummed; a truncated, garbled, or
    stale-engine-version entry is treated as a {e miss} — the caller
    recomputes, the cache never crashes and never serves a corrupt
    payload.

    All operations are thread- and domain-safe. The counters, [add] and
    [gc] take one internal mutex; [find] reads and touches the entry
    file outside it, so one slow read blocks no other operation. *)

type t

val make_key :
  engine_version:string ->
  model:string ->
  budgets:string ->
  prog_digest:string ->
  string
(** The cache keying rule. [model] identifies the job kind (e.g.
    ["litmus"], ["refine"], ["certify"]); [budgets] is a canonical
    rendering of every exploration bound (e.g.
    {!Memmodel.Fingerprint.promising_config} plus the SC fuel). *)

val create : ?dir:string -> engine_version:string -> unit -> t
(** [dir] names the backing directory (created if missing). Without it
    the store holds nothing: every [find] misses and every [add] is a
    no-op — useful as the cache-off configuration. *)

val find : t -> string -> Json.t option
(** Read, checksum, and parse the entry from disk. [None] counts as a
    miss; corrupt disk entries additionally bump the [corrupt] counter.
    A hit refreshes the entry's mtime, so {!gc}'s LRU policy sees use,
    not just age. *)

val add : t -> string -> Json.t -> unit
(** Write the disk entry atomically (temp file + rename). Disk write
    failures are swallowed: the cache degrades to recompute-always
    rather than failing the job. *)

type gc_report = {
  examined : int;  (** entries present when the sweep started *)
  deleted : int;
  kept : int;
}

val gc : t -> max_entries:int -> gc_report
(** Delete least-recently-used entries (by file mtime, oldest first,
    name-ordered on ties) until at most [max_entries] remain. Backs the
    [vrm-cli cache-gc] verb. *)

type counters = {
  hits : int;  (** disk hits *)
  misses : int;
  stores : int;
  corrupt : int;  (** disk entries rejected as truncated/garbled/stale *)
  entries : int;  (** current on-disk population *)
}

val counters : t -> counters
val pp_counters : Format.formatter -> counters -> unit
