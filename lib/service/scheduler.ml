(** The vrmd job scheduler. See the interface for the semantics; the
    implementation notes here are about the concurrency structure.

    One mutex guards all mutable scheduler state (lane queues, in-flight
    table, fingerprint memo, counters, tickets). Two condition
    variables: [work_cv] wakes workers when a job is enqueued or the
    pool is stopped; [done_cv] wakes awaiters/drainers whenever any job
    completes. Workers are OCaml 5 domains — a job's own exploration may
    spawn further domains ([jobs > 1]), which composes fine. Job
    execution happens outside the lock; only the bookkeeping before and
    after holds it.

    Lane discipline: workers always pop the interactive queue first;
    when the pool has at least two workers, worker 0 is {e reserved} —
    it only ever pops interactive — so an interactive arrival waits for
    at most one in-flight job regardless of how deep the bulk backlog
    is. *)

open Cache
open Memmodel
open Sekvm

type spec =
  | Litmus_spec of Litmus.t
  | Refine_spec of Kernel_progs.entry
  | Certify_spec of Kernel_progs.version

let find_by name f xs = List.find_opt (fun x -> f x = name) xs

let lookup_job (job : Protocol.job) : (spec, string) result =
  match job with
  | Protocol.Litmus name -> (
      let tests = Paper_examples.all @ Litmus_suite.all in
      match find_by name (fun (t : Litmus.t) -> t.prog.name) tests with
      | Some t -> Ok (Litmus_spec t)
      | None -> Error (Printf.sprintf "unknown litmus test %S" name))
  | Protocol.Refine name -> (
      let entries =
        Kernel_progs.corpus @ Kernel_progs.buggy_corpus
        @ Kernel_progs.boundary_corpus @ Kernel_progs.lint_corpus
        @ Kernel_progs.sym_corpus
      in
      match find_by name (fun (e : Kernel_progs.entry) -> e.name) entries with
      | Some e -> Ok (Refine_spec e)
      | None -> Error (Printf.sprintf "unknown kernel program %S" name))
  | Protocol.Certify { linux; stage2_levels } ->
      Ok (Certify_spec { Kernel_progs.linux; stage2_levels })

let job_of_spec : spec -> Protocol.job = function
  | Litmus_spec t -> Protocol.Litmus t.prog.name
  | Refine_spec e -> Protocol.Refine e.name
  | Certify_spec v ->
      Protocol.Certify
        { linux = v.Kernel_progs.linux; stage2_levels = v.stage2_levels }

(* The sc_fuel used for every service-side litmus/refinement run; part
   of the budgets string, so changing it cannot alias old entries. *)
let sc_fuel = 8

let litmus_config (t : Litmus.t) =
  match t.rm_config with Some c -> c | None -> Promising.default_config

let budgets_of_config config =
  Printf.sprintf "sc_fuel=%d;%s" sc_fuel (Fingerprint.promising_config config)

(* The per-job certification-memoization override, folded into the
   effective config — and hence, via [Fingerprint.promising_config],
   into the cache key, so runs with the cache on and off never alias. *)
let with_cert_cache cert_cache (config : Promising.config) =
  { config with Promising.cert_cache }

(* A memo-friendly identity for a spec's program: what the fingerprint
   memo is keyed by. Kind-prefixed so a litmus test and a kernel
   program sharing a name can never alias. *)
let spec_id = function
  | Litmus_spec t -> "litmus:" ^ t.prog.name
  | Refine_spec e -> "refine:" ^ e.name
  | Certify_spec v ->
      Printf.sprintf "certify:%s/%d" v.Kernel_progs.linux v.stage2_levels

(* The program-digest component of the cache key: the [Fingerprint]
   decode that the scheduler memoizes per program. *)
let prog_digest_of_spec = function
  | Litmus_spec t -> Fingerprint.prog t.prog
  | Refine_spec e -> Fingerprint.prog e.prog
  | Certify_spec v ->
      (* A certificate depends on the whole corpus (good, buggy and
         boundary entries all feed the report), each entry's budgets,
         and the version under audit — so its digest covers all of
         them. *)
      let entry_digest (e : Kernel_progs.entry) =
        Printf.sprintf "%s|%s|%s|%s" (Fingerprint.prog e.prog)
          (Fingerprint.promising_config e.rm_config)
          (String.concat "," e.exempt)
          (String.concat ","
             (List.map
                (fun (b, c) -> Printf.sprintf "%s=%d" b c)
                e.initial_owners))
      in
      let corpus =
        Kernel_progs.corpus @ Kernel_progs.buggy_corpus
        @ Kernel_progs.boundary_corpus
      in
      let body =
        Printf.sprintf "%s/%d\x00%s" v.Kernel_progs.linux v.stage2_levels
          (String.concat "\x00" (List.map entry_digest corpus))
      in
      Digest.to_hex (Digest.string body)

let cache_key_with ~prog_digest ?(backend = Protocol.Explicit)
    ?(cert_cache = true) ?(por = true) ?(sym = true) (spec : spec) : string =
  (* [por] and [sym] are part of the budgets: behavior sets are
     identical either way, but the cached payload embeds exploration
     statistics, and an A/B submission must not be served the other
     arm's counters. *)
  let por_tag = Printf.sprintf ";por=%b;sym=%b" por sym in
  (* [backend] too: a BMC litmus payload has a different shape (and a
     different deciding engine) than the explicit one, so the two must
     never alias. *)
  let backend_tag =
    Printf.sprintf ";backend=%s" (Protocol.backend_to_string backend)
  in
  let model, budgets =
    match spec with
    | Litmus_spec t ->
        ( "litmus",
          budgets_of_config (with_cert_cache cert_cache (litmus_config t))
          ^ por_tag ^ backend_tag )
    | Refine_spec e ->
        (* The analyzer version is part of the budgets: a lint upgrade
           must not serve results decided by the old passes. *)
        ( "refine",
          budgets_of_config (with_cert_cache cert_cache e.rm_config)
          ^ por_tag ^ ";lint=" ^ Analysis.Driver.version )
    | Certify_spec _ -> ("certify", "")
  in
  (* Keyed on [Engine.version]: an engine overhaul that could change
     stats or exploration order (interning, POR, work stealing) bumps the
     version and thereby invalidates every cached result — no manual
     cache flush needed, stale entries are simply never looked up. *)
  Store.make_key ~engine_version:Engine.version ~model ~budgets ~prog_digest

let cache_key ?backend ?cert_cache ?por ?sym spec =
  cache_key_with
    ~prog_digest:(prog_digest_of_spec spec)
    ?backend ?cert_cache ?por ?sym spec

type outcome =
  | Done of Json.t
  | Timed_out
  | Deadline_expired
  | Overloaded of { retry_after_s : float }
  | Failed of string

type meta = { from_cache : bool; wall_s : float }

type ticket = {
  tk_key : string;
  tk_spec : spec;
  tk_jobs : int;
  tk_deadline : float option;  (** absolute, [Unix.gettimeofday] scale *)
  tk_lane : Protocol.lane;
  tk_backend : Protocol.backend;
  tk_cert_cache : bool;
  tk_por : bool;
  tk_sym : bool;
  mutable tk_result : (outcome * meta) option;
}

type t = {
  hot : Hot.t;
  iq : ticket Queue.t;  (** interactive lane *)
  bq : ticket Queue.t;  (** bulk lane *)
  interactive_depth : int;
  bulk_depth : int;
  inflight : (string, ticket) Hashtbl.t;  (** key -> queued/running ticket *)
  fp_memo : (string, string) Hashtbl.t;  (** spec_id -> program digest *)
  journal : Journal.t option;
  mutable domains : unit Domain.t list;
  mutable stopping : bool;
  mutable stopped : bool;
  m : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  n_workers : int;
  (* counters, all guarded by [m] *)
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable timeouts : int;
  mutable expired : int;
  mutable coalesced : int;
  mutable shed_interactive : int;
  mutable shed_bulk : int;
  mutable lane_interactive : int;
  mutable lane_bulk : int;
  mutable fp_memo_hits : int;
  mutable litmus_jobs : int;
  mutable refine_jobs : int;
  mutable certify_jobs : int;
  mutable static_served : int;
  mutable running : int;
  mutable exec_wall : float;  (** total wall of executed (non-hit) jobs *)
  mutable exec_count : int;
  mutable engine : Engine.stats;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let cache t = Hot.store t.hot
let hot t = t.hot

let timed_out_by ~deadline (stats : Engine.stats) =
  match deadline with
  | None -> false
  | Some d -> stats.Engine.budget_hit && Unix.gettimeofday () >= d

(* Execute one job (no scheduler lock held). Returns the outcome, the
   engine stats to aggregate (None for cache hits and certificates),
   and whether the result is safe to cache. *)
let execute tk :
    outcome * Engine.stats option * [ `Cacheable | `Transient ] =
  let deadline = tk.tk_deadline in
  let jobs = tk.tk_jobs in
  match (tk.tk_spec, tk.tk_backend) with
  | Litmus_spec test, Protocol.Bmc ->
      (* The SAT backend has no mid-run cancellation valve; the
         queue-level deadline (checked before execution) still applies.
         No engine stats to aggregate — its counters live in the
         payload. *)
      let rm = Bmc.check ~mode:Bmc.Arm test.prog in
      let sc = Bmc.check ~mode:Bmc.Sc test.prog in
      ( Done (Codec.bmc_to_json (Codec.bmc_summary test ~rm ~sc)),
        None,
        `Cacheable )
  | (Refine_spec _ | Certify_spec _), Protocol.Bmc ->
      (* also rejected at the server boundary; kept here so direct
         scheduler users get the same clean failure *)
      (Failed "backend=bmc only decides litmus jobs", None, `Transient)
  | Litmus_spec test, Protocol.Explicit ->
      let r =
        Litmus.run ~sc_fuel ~jobs ?deadline ~por:tk.tk_por ~sym:tk.tk_sym
          ~cert_cache:tk.tk_cert_cache test
      in
      let stats = Engine.add_stats r.sc_stats r.rm_stats in
      if timed_out_by ~deadline r.sc_stats
         || timed_out_by ~deadline r.rm_stats
      then (Timed_out, Some stats, `Transient)
      else
        ( Done (Codec.litmus_to_json (Codec.litmus_summary r)),
          Some stats,
          `Cacheable )
  | Refine_spec e, Protocol.Explicit ->
      (* Analyzer-first routing: when every lint pass and the static
         refinement composition pass, the soundness contract (enforced
         by the cross-validation suite) guarantees the exploration would
         succeed, so the job is served statically. Fail or Unknown falls
         through to the exhaustive check. *)
      let a = Analysis.Driver.analyze e in
      if
        a.Analysis.Driver.a_overall = Analysis.Diag.Pass
        && a.Analysis.Driver.a_refinement = Analysis.Diag.Pass
      then
        ( Done
            (Codec.refine_to_json_static
               (Codec.static_refine_summary ~name:e.name e.prog)),
          None,
          `Cacheable )
      else
        (* Adaptive inner fan-out: the pool already distributes
           independent requests across worker domains (corpus-level
           parallelism), so a small search here stays sequential; only a
           search that outgrows the visited-states threshold spends the
           ticket's [jobs] fan-out. *)
        let v =
          Vrm.Refinement.check_adaptive ~sc_fuel
            ~config:(with_cert_cache tk.tk_cert_cache e.rm_config)
            ~jobs ?deadline ~por:tk.tk_por ~sym:tk.tk_sym e.prog
        in
        let stats = Engine.add_stats v.sc_stats v.rm_stats in
        if timed_out_by ~deadline v.sc_stats
           || timed_out_by ~deadline v.rm_stats
        then (Timed_out, Some stats, `Transient)
        else
          ( Done
              (Codec.refine_to_json
                 (Codec.refine_summary ~name:e.name e.prog v)),
            Some stats,
            `Cacheable )
  | Certify_spec version, Protocol.Explicit ->
      (* Certificates have no engine-level cancellation hook; they only
         honor the queue-level deadline (checked before execution). *)
      let report = Vrm.Certificate.certify version in
      ( Done (Codec.certificate_to_json (Vrm.Certificate.summarize report)),
        None,
        `Cacheable )

let run_one t tk =
  let t0 = Unix.gettimeofday () in
  (* Deadline first, cache second: a job that aged out while queued is
     classified [Deadline_expired] unconditionally — it must never
     start exploration, and serving it from cache would hide the
     overload that delayed it. *)
  let expired =
    match tk.tk_deadline with
    | Some d -> Unix.gettimeofday () >= d
    | None -> false
  in
  let result =
    if expired then
      ( (Deadline_expired, { from_cache = false; wall_s = 0. }),
        None,
        `Transient )
    else
      match Hot.find t.hot tk.tk_key with
      | Some payload ->
          ( (Done payload, { from_cache = true; wall_s = 0. }),
            None,
            `Transient )
      | None -> (
          match execute tk with
          | outcome, stats, cacheable ->
              ( ( outcome,
                  { from_cache = false;
                    wall_s = Unix.gettimeofday () -. t0 } ),
                stats,
                cacheable )
          | exception exn ->
              ( ( Failed (Printexc.to_string exn),
                  { from_cache = false;
                    wall_s = Unix.gettimeofday () -. t0 } ),
                None,
                `Transient ))
  in
  let ((outcome, meta) as result), stats, cacheable = result in
  (match (outcome, cacheable) with
  | Done payload, `Cacheable -> Hot.add t.hot tk.tk_key payload
  | _ -> ());
  (* terminal state: the journal forgets the job whatever the outcome *)
  (match t.journal with
  | Some j -> Journal.record_done j ~key:tk.tk_key
  | None -> ());
  locked t (fun () ->
      (match stats with
      | Some s -> t.engine <- Engine.add_stats t.engine s
      | None -> ());
      (match outcome with
      | Done payload ->
          t.completed <- t.completed + 1;
          if not meta.from_cache then begin
            t.exec_wall <- t.exec_wall +. meta.wall_s;
            t.exec_count <- t.exec_count + 1
          end;
          if Codec.refine_served_by_static payload then
            t.static_served <- t.static_served + 1
      | Timed_out -> t.timeouts <- t.timeouts + 1
      | Deadline_expired -> t.expired <- t.expired + 1
      | Overloaded _ -> () (* never reaches a worker *)
      | Failed _ -> t.failed <- t.failed + 1);
      tk.tk_result <- Some result;
      Hashtbl.remove t.inflight tk.tk_key;
      t.running <- t.running - 1;
      Condition.broadcast t.done_cv)

let rec worker_loop t ~reserved =
  let next =
    locked t (fun () ->
        let can_pop () =
          (not (Queue.is_empty t.iq))
          || ((not reserved) && not (Queue.is_empty t.bq))
        in
        while (not (can_pop ())) && not t.stopping do
          Condition.wait t.work_cv t.m
        done;
        if not (can_pop ()) then None
        else begin
          let tk = Queue.pop (if Queue.is_empty t.iq then t.bq else t.iq) in
          t.running <- t.running + 1;
          Some tk
        end)
  in
  match next with
  | None -> ()
  | Some tk ->
      run_one t tk;
      worker_loop t ~reserved

let create ?workers ?cache ?(hot_shards = 16) ?(hot_capacity = 1024)
    ?(hot = true) ?(interactive_depth = 64) ?(bulk_depth = 256) ?journal ()
    =
  let n_workers =
    match workers with
    | Some n -> max 1 n
    | None -> max 2 (Domain.recommended_domain_count () - 1)
  in
  let store =
    match cache with
    | Some s -> s
    | None -> Store.create ~engine_version:Engine.version ()
  in
  let t =
    { hot = Hot.create ~shards:hot_shards ~capacity:hot_capacity
        ~enabled:hot store;
      iq = Queue.create ();
      bq = Queue.create ();
      interactive_depth = max 1 interactive_depth;
      bulk_depth = max 1 bulk_depth;
      inflight = Hashtbl.create 32;
      fp_memo = Hashtbl.create 64;
      journal;
      domains = [];
      stopping = false;
      stopped = false;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      n_workers;
      submitted = 0;
      completed = 0;
      failed = 0;
      timeouts = 0;
      expired = 0;
      coalesced = 0;
      shed_interactive = 0;
      shed_bulk = 0;
      lane_interactive = 0;
      lane_bulk = 0;
      fp_memo_hits = 0;
      litmus_jobs = 0;
      refine_jobs = 0;
      certify_jobs = 0;
      static_served = 0;
      running = 0;
      exec_wall = 0.;
      exec_count = 0;
      engine = Engine.zero_stats }
  in
  (* worker 0 is the interactive reserve whenever the pool can spare
     it; a single-worker pool serves both lanes *)
  t.domains <-
    List.init n_workers (fun i ->
        let reserved = n_workers >= 2 && i = 0 in
        Domain.spawn (fun () -> worker_loop t ~reserved));
  t

(* Program digest via the memo: one [Fingerprint] decode serves every
   subsequent submission on the same program (same-program/
   different-config jobs decode once). *)
let memo_prog_digest t spec =
  let id = spec_id spec in
  locked t (fun () ->
      match Hashtbl.find_opt t.fp_memo id with
      | Some d ->
          t.fp_memo_hits <- t.fp_memo_hits + 1;
          d
      | None ->
          let d = prog_digest_of_spec spec in
          Hashtbl.replace t.fp_memo id d;
          d)

(* [deadline] here is absolute — [submit] converts, [replay] passes the
   journaled timestamp straight through. *)
let submit_abs t ~jobs ~deadline ~lane ~backend ~cert_cache ~por ~sym
    ~journaled spec =
  let prog_digest = memo_prog_digest t spec in
  let key = cache_key_with ~prog_digest ~backend ~cert_cache ~por ~sym spec in
  locked t (fun () ->
      t.submitted <- t.submitted + 1;
      (match lane with
      | Protocol.Interactive -> t.lane_interactive <- t.lane_interactive + 1
      | Protocol.Bulk -> t.lane_bulk <- t.lane_bulk + 1);
      (match spec with
      | Litmus_spec _ -> t.litmus_jobs <- t.litmus_jobs + 1
      | Refine_spec _ -> t.refine_jobs <- t.refine_jobs + 1
      | Certify_spec _ -> t.certify_jobs <- t.certify_jobs + 1);
      match Hashtbl.find_opt t.inflight key with
      | Some tk ->
          t.coalesced <- t.coalesced + 1;
          tk
      | None ->
          let tk =
            { tk_key = key;
              tk_spec = spec;
              tk_jobs = max 1 jobs;
              tk_deadline = deadline;
              tk_lane = lane;
              tk_backend = backend;
              tk_cert_cache = cert_cache;
              tk_por = por;
              tk_sym = sym;
              tk_result = None }
          in
          let q, depth_limit, shed =
            match lane with
            | Protocol.Interactive ->
                ( t.iq,
                  t.interactive_depth,
                  fun () -> t.shed_interactive <- t.shed_interactive + 1 )
            | Protocol.Bulk ->
                (t.bq, t.bulk_depth, fun () -> t.shed_bulk <- t.shed_bulk + 1)
          in
          if t.stopping then
            tk.tk_result <-
              Some
                ( Failed "scheduler is shut down",
                  { from_cache = false; wall_s = 0. } )
          else if Queue.length q >= depth_limit then begin
            (* admission control: shed rather than queue unboundedly.
               The retry hint scales with how much work is already
               committed: depth x mean executed wall / workers. *)
            shed ();
            let mean_wall =
              if t.exec_count = 0 then 0.05
              else t.exec_wall /. float_of_int t.exec_count
            in
            let retry_after_s =
              Float.max 0.1
                (float_of_int (Queue.length q)
                *. mean_wall
                /. float_of_int t.n_workers)
            in
            tk.tk_result <-
              Some
                ( Overloaded { retry_after_s },
                  { from_cache = false; wall_s = 0. } )
          end
          else begin
            Hashtbl.replace t.inflight key tk;
            Queue.push tk q;
            (if not journaled then
               match t.journal with
               | Some j ->
                   Journal.record_add j
                     { Journal.e_key = key;
                       e_job = job_of_spec spec;
                       e_jobs = tk.tk_jobs;
                       e_lane = lane;
                       e_deadline = deadline;
                       e_backend = backend;
                       e_cert_cache = cert_cache;
                       e_por = por;
                       e_sym = sym }
               | None -> ());
            (* broadcast, not signal: with a reserved interactive
               worker, a single wakeup for a bulk job can land on the
               reserved worker, which is not allowed to pop it and goes
               straight back to sleep — a lost wakeup that strands the
               queue. Waking everyone lets the right worker claim it. *)
            Condition.broadcast t.work_cv
          end;
          tk)

let submit t ?(jobs = 1) ?deadline_s ?(lane = Protocol.Interactive)
    ?(backend = Protocol.Explicit) ?(cert_cache = true) ?(por = true)
    ?(sym = true) spec =
  let deadline =
    Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s
  in
  submit_abs t ~jobs ~deadline ~lane ~backend ~cert_cache ~por ~sym
    ~journaled:false spec

let replay t (entries : Journal.entry list) =
  List.fold_left
    (fun n (e : Journal.entry) ->
      match lookup_job e.Journal.e_job with
      | Error _ -> n (* journaled against a corpus that no longer has it *)
      | Ok spec ->
          (* journaled = true: [open_] already rewrote these records
             during compaction; re-adding would double them *)
          ignore
            (submit_abs t ~jobs:e.e_jobs ~deadline:e.e_deadline
               ~lane:e.e_lane ~backend:e.e_backend
               ~cert_cache:e.e_cert_cache ~por:e.e_por ~sym:e.e_sym
               ~journaled:true spec);
          n + 1)
    0 entries

let await t tk =
  locked t (fun () ->
      while tk.tk_result = None do
        Condition.wait t.done_cv t.m
      done;
      Option.get tk.tk_result)

let run t ?jobs ?deadline_s ?lane ?backend ?cert_cache ?por ?sym spec =
  await t (submit t ?jobs ?deadline_s ?lane ?backend ?cert_cache ?por ?sym spec)

type lane_counters = {
  lane_submitted : int;
  lane_shed : int;
  lane_depth : int;
}

type counters = {
  submitted : int;
  completed : int;
  failed : int;
  timeouts : int;
  expired : int;
  coalesced : int;
  interactive : lane_counters;
  bulk : lane_counters;
  fp_memo_hits : int;
  litmus_jobs : int;
  refine_jobs : int;
  certify_jobs : int;
  static_served : int;
  queue_depth : int;
  running : int;
  workers : int;
  engine : Engine.stats;
  cache_stats : Store.counters;
  hot_stats : Hot.counters;
}

let counters t : counters =
  let hot_stats = Hot.counters t.hot in
  let cache_stats = Store.counters (Hot.store t.hot) in
  locked t (fun () ->
      { submitted = t.submitted;
        completed = t.completed;
        failed = t.failed;
        timeouts = t.timeouts;
        expired = t.expired;
        coalesced = t.coalesced;
        interactive =
          { lane_submitted = t.lane_interactive;
            lane_shed = t.shed_interactive;
            lane_depth = Queue.length t.iq };
        bulk =
          { lane_submitted = t.lane_bulk;
            lane_shed = t.shed_bulk;
            lane_depth = Queue.length t.bq };
        fp_memo_hits = t.fp_memo_hits;
        litmus_jobs = t.litmus_jobs;
        refine_jobs = t.refine_jobs;
        certify_jobs = t.certify_jobs;
        static_served = t.static_served;
        queue_depth = Queue.length t.iq + Queue.length t.bq;
        running = t.running;
        workers = t.n_workers;
        engine = t.engine;
        cache_stats;
        hot_stats })

let lane_to_json (l : lane_counters) =
  Json.Obj
    [ ("submitted", Json.Int l.lane_submitted);
      ("shed", Json.Int l.lane_shed);
      ("depth", Json.Int l.lane_depth) ]

let counters_to_json (c : counters) : Json.t =
  let s = c.engine in
  let cs = c.cache_stats in
  Json.Obj
    [ ("submitted", Json.Int c.submitted);
      ("completed", Json.Int c.completed);
      ("failed", Json.Int c.failed);
      ("timeouts", Json.Int c.timeouts);
      ("deadline_expired", Json.Int c.expired);
      ("coalesced", Json.Int c.coalesced);
      ( "lanes",
        Json.Obj
          [ ("interactive", lane_to_json c.interactive);
            ("bulk", lane_to_json c.bulk) ] );
      ("fp_memo_hits", Json.Int c.fp_memo_hits);
      ("litmus_jobs", Json.Int c.litmus_jobs);
      ("refine_jobs", Json.Int c.refine_jobs);
      ("certify_jobs", Json.Int c.certify_jobs);
      ("static_served", Json.Int c.static_served);
      ("queue_depth", Json.Int c.queue_depth);
      ("running", Json.Int c.running);
      ("workers", Json.Int c.workers);
      ("engine", Codec.stats_to_json s);
      ( "cache",
        Json.Obj
          [ ("hits", Json.Int cs.Store.hits);
            ("misses", Json.Int cs.Store.misses);
            ("stores", Json.Int cs.Store.stores);
            ("corrupt", Json.Int cs.Store.corrupt);
            ("entries", Json.Int cs.Store.entries) ] );
      ("hot", Hot.counters_to_json c.hot_stats) ]

let pp_counters fmt (c : counters) =
  Format.fprintf fmt
    "@[<v>jobs: submitted=%d completed=%d failed=%d timeouts=%d expired=%d \
     coalesced=%d@ lanes: interactive=%d/shed=%d/depth=%d \
     bulk=%d/shed=%d/depth=%d@ fp_memo_hits=%d@ kinds: litmus=%d refine=%d certify=%d \
     static_served=%d@ pool: workers=%d queued=%d running=%d@ engine: %a@ \
     cache: %a@ hot: %a@]"
    c.submitted c.completed c.failed c.timeouts c.expired c.coalesced
    c.interactive.lane_submitted c.interactive.lane_shed
    c.interactive.lane_depth c.bulk.lane_submitted c.bulk.lane_shed
    c.bulk.lane_depth c.fp_memo_hits c.litmus_jobs
    c.refine_jobs c.certify_jobs c.static_served c.workers c.queue_depth
    c.running Engine.pp_stats c.engine Store.pp_counters c.cache_stats
    Hot.pp_counters c.hot_stats

let drain t =
  locked t (fun () ->
      while
        not (Queue.is_empty t.iq && Queue.is_empty t.bq && t.running = 0)
      do
        Condition.wait t.done_cv t.m
      done)

let shutdown t =
  drain t;
  let domains =
    locked t (fun () ->
        if t.stopped then []
        else begin
          t.stopping <- true;
          t.stopped <- true;
          Condition.broadcast t.work_cv;
          let ds = t.domains in
          t.domains <- [];
          ds
        end)
  in
  List.iter Domain.join domains
