(** The vrmd job scheduler: a fixed pool of OCaml 5 worker domains
    executing verification jobs against the two-tier content-addressed
    cache, with priority lanes, admission control and a persistent
    journal.

    {2 Semantics}

    {ul
    {- {b Caching.} Every job has a cache key ({!cache_key}) derived from
       the program's content digest, the job kind, the exploration
       budgets, and {!Memmodel.Engine.version} — and {e not} from the
       [jobs] fan-out, the lane, or the job's name, which never change
       the result. Lookups go through the sharded in-memory hot tier
       ({!Cache.Hot}) first: a warm hit touches neither disk nor
       checksum. A hit skips exploration entirely (0 states visited).}
    {- {b Lanes.} Submissions join one of two queues:
       [Protocol.Interactive] (default) or [Protocol.Bulk]. Workers
       serve interactive strictly first, and pools of two or more
       workers keep one worker reserved for interactive only — so an
       interactive arrival waits behind at most one in-flight job, no
       matter how deep the bulk backlog. The lane affects {e when} a job
       runs, never its result.}
    {- {b Backpressure.} Each lane has a depth limit. A submission to a
       full lane is {e shed} at admission: its ticket resolves
       immediately to [Overloaded] carrying a retry-after hint (queue
       depth x observed mean job wall / workers), nothing is queued and
       nothing is computed. Coalesced resubmissions are never shed —
       they attach to work already admitted.}
    {- {b Fingerprint memo.} The program-digest component of the cache
       key is memoized per program ([fp_memo_hits]), so a sweep
       submitting one program under many configurations decodes its
       fingerprint once.}
    {- {b Coalescing.} Submitting a job whose key is already queued or
       running returns the {e same} ticket: concurrent identical
       requests cost one computation. (A coalesced ticket keeps the
       deadline of the first submission.)}
    {- {b Deadlines.} [deadline_s] is a per-job budget in seconds from
       submission. A job still queued past its deadline is classified
       [Deadline_expired] without ever starting exploration (checked
       before the cache, so overload is never masked by a warm entry);
       a running litmus/refinement job that overruns is cancelled
       mid-exploration via the engine's deadline valve and classified
       [Timed_out]. Neither is ever cached (they are
       schedule-dependent).}
    {- {b Durability.} With a {!Journal.t} attached, every enqueued job
       is journaled (with its {e absolute} deadline) and forgotten when
       it reaches any terminal state; {!replay} resubmits the pending
       set from a previous process through the normal path, so a
       corpus-wide re-verification survives a restart — and jobs whose
       deadline passed while the daemon was down come back as
       [Deadline_expired], not as silent drops.}
    {- {b Shutdown.} [drain] waits for both queues and in-flight jobs;
       [shutdown] drains, then stops and joins the workers. Submissions
       after shutdown fail cleanly.}} *)

open Cache
open Memmodel
open Sekvm

(** A resolved job: the corpus values it runs on. *)
type spec =
  | Litmus_spec of Litmus.t
  | Refine_spec of Kernel_progs.entry
  | Certify_spec of Kernel_progs.version

val lookup_job : Protocol.job -> (spec, string) result
(** Resolve a wire-protocol job against the repository corpora
    (litmus: paper examples + litmus suite; refine: kernel corpus
    including buggy and boundary entries; certify: any version). *)

val job_of_spec : spec -> Protocol.job
(** The inverse naming direction, used when journaling a spec. *)

val cache_key :
  ?backend:Protocol.backend -> ?cert_cache:bool -> ?por:bool ->
  ?sym:bool -> spec -> string
(** The content-addressed key (see {!Cache.Store.make_key}); independent
    of [jobs], deadlines, lanes and submission order. [backend] (default
    [Explicit]), [cert_cache], [por] and [sym] (all default true) are
    part of the key — the reduction flags cannot change a result's
    behavior set, but the payload embeds exploration statistics, a BMC
    payload has a different shape entirely, and A/B submissions must not
    coalesce onto one cache entry. *)

type outcome =
  | Done of Json.t  (** a {!Cache.Codec} payload *)
  | Timed_out  (** deadline hit mid-exploration *)
  | Deadline_expired  (** deadline passed while still queued: never ran *)
  | Overloaded of { retry_after_s : float }
      (** shed at admission: the lane's queue was full *)
  | Failed of string

type meta = { from_cache : bool; wall_s : float }

type ticket
type t

val create :
  ?workers:int -> ?cache:Store.t -> ?hot_shards:int -> ?hot_capacity:int ->
  ?hot:bool -> ?interactive_depth:int -> ?bulk_depth:int ->
  ?journal:Journal.t -> unit -> t
(** [workers] defaults to [max 2 (Domain.recommended_domain_count () - 1)];
    [cache] defaults to a fresh dirless (always-miss) store. The hot
    tier defaults to 16 shards / 1024 entries; [~hot:false] disables it
    (every lookup goes to disk — the cache-off parity configuration).
    [interactive_depth] (default 64) and [bulk_depth] (default 256)
    bound the lane queues; submissions beyond them are shed. [journal]
    attaches a persistent job journal. *)

val cache : t -> Store.t
val hot : t -> Hot.t

val submit :
  t -> ?jobs:int -> ?deadline_s:float -> ?lane:Protocol.lane ->
  ?backend:Protocol.backend -> ?cert_cache:bool -> ?por:bool ->
  ?sym:bool -> spec -> ticket
(** [lane] (default [Interactive]) picks the queue — see the lane and
    backpressure semantics above; a shed ticket is already resolved to
    [Overloaded] when returned. [backend] (default [Explicit]) selects
    the deciding engine for litmus specs — [Bmc] runs the SAT-based
    bounded model checker and yields a {!Cache.Codec.bmc_summary}
    payload; non-litmus specs fail cleanly under it. [cert_cache]
    (default true) toggles certification memoization for this job's
    Promising explorations; [por] (default true) toggles partial-order
    reduction and [sym] (default true) thread-symmetry reduction
    (identical behavior sets either way; all four flags are part of the
    cache key). *)

val replay : t -> Journal.entry list -> int
(** Resubmit journaled pending jobs (from {!Journal.open_}) through the
    normal path, preserving their lanes, flags and {e absolute}
    deadlines; returns how many were resubmitted (entries naming jobs
    the current corpora no longer contain are skipped). The replayed
    tickets are not awaited — results land in the cache and the journal
    forgets each job as it completes. *)

val await : t -> ticket -> outcome * meta
(** Blocks until the ticket's job completes (callable from any thread or
    domain). Shed tickets return immediately. *)

val run :
  t -> ?jobs:int -> ?deadline_s:float -> ?lane:Protocol.lane ->
  ?backend:Protocol.backend -> ?cert_cache:bool -> ?por:bool ->
  ?sym:bool -> spec -> outcome * meta
(** [submit] + [await]. *)

type lane_counters = {
  lane_submitted : int;
  lane_shed : int;  (** admissions refused with [Overloaded] *)
  lane_depth : int;  (** currently queued *)
}

type counters = {
  submitted : int;
  completed : int;
  failed : int;
  timeouts : int;
  expired : int;  (** classified [Deadline_expired] while queued *)
  coalesced : int;  (** submissions answered by an in-flight ticket *)
  interactive : lane_counters;
  bulk : lane_counters;
  fp_memo_hits : int;  (** fingerprint decodes saved by the memo *)
  litmus_jobs : int;
  refine_jobs : int;
  certify_jobs : int;
  static_served : int;
      (** refinement results served by the static analyzer (fresh or
          cached) instead of exhaustive exploration *)
  queue_depth : int;  (** both lanes *)
  running : int;  (** currently executing *)
  workers : int;
  engine : Engine.stats;  (** aggregate over all non-cached executions *)
  cache_stats : Store.counters;  (** the disk tier *)
  hot_stats : Hot.counters;  (** the in-memory tier *)
}

val counters : t -> counters
val counters_to_json : counters -> Json.t
val pp_counters : Format.formatter -> counters -> unit

val drain : t -> unit
(** Block until both lanes are empty and no job is running. *)

val shutdown : t -> unit
(** [drain], then stop and join the worker domains. Idempotent. *)
