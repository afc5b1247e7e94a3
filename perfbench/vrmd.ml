(* Workloads vrmd-cold and vrmd-warm: the vrmd daemon ([vrm-cli serve],
   its own process) driven over its Unix socket by two client
   connections, closed loop: each connection sends its next request only
   when the previous reply has arrived.

   The catalog is every litmus and refinement job Scheduler.lookup_job
   resolves by name, certify jobs excluded (those take over a second
   each and would only re-measure the refinement sweep).

   - vrmd-cold: one pass submits the whole catalog, in a seeded order,
     on the bulk lane, to a fresh daemon with an empty cache directory;
     every request computes. Daemon restarts between passes are not
     timed.
   - vrmd-warm: the daemon's cache holds the catalog (set-up stores it);
     seeded uniform picks go on the interactive lane and every request
     is a hot-tier hit.

   Every payload the daemon returns must equal an in-process direct run
   of the same job, compared with the volatile fields left out. *)

open Common
open Service
module Store = Cache.Store
module Hot = Cache.Hot
module Codec = Cache.Codec

(* ---- the catalog ------------------------------------------------------------ *)

let dedup names =
  List.rev
    (List.fold_left
       (fun acc n -> if List.mem n acc then acc else n :: acc)
       [] names)

let catalog : Protocol.job array =
  let litmus =
    List.map
      (fun (t : Memmodel.Litmus.t) -> t.prog.Memmodel.Prog.name)
      (Memmodel.Paper_examples.all @ Memmodel.Litmus_suite.all)
  in
  let refine =
    let open Sekvm.Kernel_progs in
    List.map
      (fun (e : entry) -> e.name)
      (corpus @ buggy_corpus @ boundary_corpus @ lint_corpus @ sym_corpus)
  in
  Array.of_list
    (List.map (fun n -> Protocol.Litmus n) (dedup litmus)
    @ List.map (fun n -> Protocol.Refine n) (dedup refine))

let n_jobs = Array.length catalog

let spec_of job =
  match Scheduler.lookup_job job with
  | Ok s -> s
  | Error msg -> failwith ("catalog job does not resolve: " ^ msg)

let specs = lazy (Array.map spec_of catalog)

let job_name = function
  | Protocol.Litmus n -> "litmus:" ^ n
  | Protocol.Refine n -> "refine:" ^ n
  | Protocol.Certify _ -> "certify"

let submit_req lane job =
  Protocol.Submit
    { job; jobs = 1; deadline_s = None; backend = Protocol.Explicit;
      cert_cache = true; por = true; sym = true; lane }

(* ---- direct runs ---------------------------------------------------------- *)

(* The payload a direct, in-process run of [spec] produces: the calls the
   scheduler makes for a job, with the same arguments, each under its
   own span. With [store], the encoded payload is also stored, as the
   scheduler does after computing. Returns the payload and the number of
   bytes encoded. *)
let direct ?store ~req spec =
  let encode v =
    Span.run ~req "cache.codec.encode" (fun _ ->
        let j = v () in
        (j, String.length (Json.to_string j)))
  in
  let payload, bytes =
    match spec with
    | Scheduler.Litmus_spec t ->
        let r =
          Span.run ~req "memmodel.litmus.run" (fun _ ->
              Memmodel.Litmus.run ~sc_fuel:8 ~jobs:1 ~por:true ~sym:true
                ~cert_cache:true t)
        in
        encode (fun () -> Codec.litmus_to_json (Codec.litmus_summary r))
    | Scheduler.Refine_spec e ->
        let a =
          Span.run ~req "analysis.driver.analyze" (fun _ ->
              Analysis.Driver.analyze e)
        in
        if
          a.Analysis.Driver.a_overall = Analysis.Diag.Pass
          && a.Analysis.Driver.a_refinement = Analysis.Diag.Pass
        then
          encode (fun () ->
              Codec.refine_to_json_static
                (Codec.static_refine_summary ~name:e.name e.prog))
        else
          let v =
            Span.run ~req "refinement.check" (fun _ ->
                Vrm.Refinement.check_adaptive ~sc_fuel:8
                  ~config:
                    { e.rm_config with Memmodel.Promising.cert_cache = true }
                  ~jobs:1 ~por:true ~sym:true e.prog)
          in
          encode (fun () ->
              Codec.refine_to_json (Codec.refine_summary ~name:e.name e.prog v))
    | Scheduler.Certify_spec _ -> failwith "certify jobs are not in the catalog"
  in
  Option.iter
    (fun st ->
      Span.run ~req "cache.store.add" (fun _ ->
          Store.add st (Scheduler.cache_key spec) payload))
    store;
  (payload, bytes)

(* Direct-run payloads for the whole catalog, computed once per process
   after the timed phase. *)
let references =
  lazy (Array.map (fun s -> fst (direct ~req:0 s)) (Lazy.force specs))

(* ---- the daemon process ------------------------------------------------------ *)

type daemon = {
  pid : int;
  socket : string;
  cache_dir : string;
}

let live : daemon list ref = ref []
let counter = ref 0

let try_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let stop_daemon d =
  (match Client.shutdown ~socket:d.socket with
  | Ok () -> ()
  | Error _ | (exception _) -> ( try Unix.kill d.pid Sys.sigkill with _ -> ()));
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  rm_rf d.cache_dir;
  rm_rf d.socket;
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* Kill whatever is still running when the process exits (normally or
   by an exception), and remove its files. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with _ -> ());
          (try ignore (Unix.waitpid [] d.pid) with _ -> ());
          rm_rf d.cache_dir;
          rm_rf d.socket)
        !live;
      live := [])

(* Start [vrm-cli serve] on an empty cache directory and wait until it
   accepts a connection. *)
let spawn ~cli =
  ensure_run_dir ();
  incr counter;
  let base =
    Filename.concat run_dir (Printf.sprintf "d%d-%d" (Unix.getpid ()) !counter)
  in
  let socket = base ^ ".sock" and cache_dir = base ^ ".cache" in
  rm_rf socket;
  rm_rf cache_dir;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "--cache-dir"; cache_dir |]
      devnull devnull devnull
  in
  Unix.close devnull;
  let d = { pid; socket; cache_dir } in
  live := d :: !live;
  let give_up = now () +. 30. in
  let rec wait () =
    match try_connect socket with
    | Some fd -> Unix.close fd
    | None ->
        if now () > give_up then failwith "vrmd did not come up";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "vrmd exited during start-up");
        Thread.delay 0.001;
        wait ()
  in
  wait ();
  d

let status d =
  match Client.status ~socket:d.socket with
  | Ok j -> j
  | Error msg -> failwith ("vrmd status: " ^ msg)

(* ---- requests ---------------------------------------------------------------- *)

type reply = Payload of Json.t | Refused of string

let classify = function
  | Protocol.Result j -> Payload (Json.member "data" j)
  | Protocol.Error_r m -> Refused m
  | Protocol.Overloaded_r { retry_after_s } ->
      Refused (Printf.sprintf "overloaded (retry after %.2fs)" retry_after_s)
  | Protocol.Status_r _ | Protocol.Bye -> Refused "unexpected response"

(* Load comes from one process, on as many connections as the machine
   this was tuned on has hardware threads. *)
let clients = 2

(* Where requests go: a socket, and how many connections have been made
   to it. Connections are opened one at a time, so the listener accepts
   them in the same order; the traced run relies on that to give a
   request's client-side and server-side spans one id. *)
type target = {
  socket : string;
  mutable conns : int;
  rt : Unix.file_descr -> req:int -> Protocol.lane -> Protocol.job -> reply;
}

let plain_rt fd ~req:_ lane job =
  match Client.roundtrip fd (submit_req lane job) with
  | r -> classify r
  | exception e -> Refused ("transport: " ^ Printexc.to_string e)

let target ?(rt = plain_rt) socket = { socket; conns = 0; rt }

let req_id conn seq = ((conn + 1) * 1_000_000) + seq

(* Open [clients] connections and run [body c k fd] on a thread each:
   [c] numbers the connection here, [k] at the listener. *)
let on_connections tg body =
  let fds =
    List.init clients (fun _ ->
        match try_connect tg.socket with
        | Some fd ->
            let k = tg.conns in
            tg.conns <- k + 1;
            (k, fd)
        | None -> failwith ("cannot connect to " ^ tg.socket))
  in
  let ths =
    List.mapi
      (fun c (k, fd) ->
        Thread.create
          (fun () ->
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with _ -> ())
              (fun () -> body c k fd))
          ())
      fds
  in
  List.iter Thread.join ths

(* One pass over [order] (catalog indices): each connection takes the
   next unsent job. Returns, per position, the job index, latency in ms
   and reply; and the pass wall time. *)
let pass tg ~lane order =
  let n = Array.length order in
  let out = Array.make n (0, 0., Refused "not sent") in
  let cursor = Atomic.make 0 in
  let t0 = now () in
  on_connections tg (fun _ k fd ->
      let rec loop seq =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          let j = order.(i) in
          let t0 = now () in
          let r = tg.rt fd ~req:(req_id k seq) lane catalog.(j) in
          out.(i) <- (j, (now () -. t0) *. 1000., r);
          loop (seq + 1)
        end
      in
      loop 0);
  (out, now () -. t0)

(* ---- checks -------------------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let tally () = { attempted = 0; failed = 0; problems = [] }

let note t msg =
  t.failed <- t.failed + 1;
  if List.length t.problems < 20 then t.problems <- msg :: t.problems

(* Check one reply against the direct run of its job. A refusal or
   transport error is a failed request; a wrong payload is also an
   incorrect output. Returns whether the payload is wrong. *)
let check_reply t j r =
  t.attempted <- t.attempted + 1;
  match r with
  | Refused m ->
      note t (Printf.sprintf "%s: %s" (job_name catalog.(j)) m);
      false
  | Payload p ->
      if equal_stable p (Lazy.force references).(j) then false
      else begin
        note t
          (Printf.sprintf "%s: payload differs from a direct run"
             (job_name catalog.(j)));
        true
      end

let int_member path j =
  List.fold_left (fun j k -> Json.member k j) j path |> Json.to_int

(* ---- vrmd-cold ------------------------------------------------------------------- *)

(* One pass on a fresh daemon; also returns when the pass began. *)
let cold_pass ~cli ~st =
  let d = spawn ~cli in
  let order = shuffle st (Array.init n_jobs Fun.id) in
  let began = now () in
  let out, wall = pass (target d.socket) ~lane:Protocol.Bulk order in
  let s = status d in
  let rss = peak_rss_mb d.pid in
  stop_daemon d;
  (began, out, wall, s, rss)

(* Rate and percentiles are medians over slices of [passes_per_slice]
   consecutive passes (114 requests: a slice's p90 has eleven samples
   beyond it), so one pass hit by a transient slowdown of the machine
   moves one slice, not the result. *)
let passes_per_slice = 2

let run_cold ~cli ~t_start ~seed ~seconds =
  let st = Random.State.make [| seed; 11 |] in
  (* warm-up: one untimed pass, checked but not counted. Set-up runs
     from the program's start to the start of the first timed pass, so
     it covers two daemon spawns and the warm-up pass. *)
  let _, warm_out, _, _, _ = cold_pass ~cli ~st in
  let setup_s = ref nan and passes = ref [] and busy = ref 0. in
  let rss = ref [] and static_served = ref 0 and refine_jobs = ref 0 in
  let coalesced = ref 0 and shed = ref 0 and visited = ref 0 in
  while !busy < seconds || List.length !passes < passes_per_slice do
    let began, out, wall, s, m = cold_pass ~cli ~st in
    if !passes = [] then setup_s := began -. t_start;
    busy := !busy +. wall;
    passes := (wall, out) :: !passes;
    rss := m :: !rss;
    static_served := !static_served + int_member [ "static_served" ] s;
    refine_jobs := !refine_jobs + int_member [ "refine_jobs" ] s;
    coalesced := !coalesced + int_member [ "coalesced" ] s;
    shed :=
      !shed
      + int_member [ "lanes"; "interactive"; "shed" ] s
      + int_member [ "lanes"; "bulk"; "shed" ] s;
    visited := !visited + int_member [ "engine"; "visited" ] s
  done;
  let passes = Array.of_list (List.rev !passes) in
  let t = tally () and wrong = ref false in
  let check t out =
    Array.iter (fun (j, _, r) -> if check_reply t j r then wrong := true) out
  in
  Array.iter (fun (_, out) -> check t out) passes;
  let t_warm = tally () in
  check t_warm warm_out;
  let slices = Array.length passes / passes_per_slice in
  let rates = ref [] and p50s = ref [] and p90s = ref [] in
  for k = 0 to slices - 1 do
    let ps = Array.sub passes (k * passes_per_slice) passes_per_slice in
    let wall = Array.fold_left (fun a (w, _) -> a +. w) 0. ps in
    let ms =
      sorted
        (List.concat_map
           (fun (_, out) -> List.map (fun (_, ms, _) -> ms) (Array.to_list out))
           (Array.to_list ps))
    in
    rates := (float (Array.length ms) /. wall) :: !rates;
    p50s := percentile ms 50. :: !p50s;
    p90s := percentile ms 90. :: !p90s
  done;
  let walls = Array.to_list (Array.map fst passes) in
  let n = t.attempted in
  { correct = not !wrong;
    attempted = n;
    failed = t.failed;
    problems = t.problems @ t_warm.problems;
    metrics =
      [ metric "setup_s" "s" !setup_s;
        metric "peak_rss_mb" "MB" (median !rss);
        metric "pass_ratio" "ratio" (1. -. (float t.failed /. float n));
        metric "rate_per_s" "1/s" (median !rates);
        metric "p50_ms" "ms" (median !p50s);
        metric "p90_ms" "ms" (median !p90s) ];
    detail =
      [ ("workload", Json.String "vrmd-cold");
        ("operation", Json.String "one bulk-lane request that computes");
        ("catalog_jobs", Json.Int n_jobs);
        ("passes", Json.Int (Array.length passes));
        ("requests", Json.Int n);
        ("slices", Json.Int slices);
        ("slice_size", Json.Int (passes_per_slice * n_jobs));
        ("p90_samples_beyond", Json.Int (beyond (passes_per_slice * n_jobs) 90.));
        ("sweep_s", Json.Float (median walls));
        ("states_per_s", Json.Float (float !visited /. !busy));
        ("static_served", Json.Int !static_served);
        ("refine_jobs", Json.Int !refine_jobs);
        ("coalesced", Json.Int !coalesced);
        ("shed", Json.Int !shed) ] }

(* ---- vrmd-warm ------------------------------------------------------------------- *)

let warmup_requests = 200

(* Rate and percentiles are medians over slices of [slice] consecutive
   replies (Common.sliced). *)
let slice = 1000

(* Closed-loop uniform picks on [clients] connections for [seconds].
   Every reply must be the same payload the job's first reply carried
   (checked here, outside the timed round trip); the first replies are
   checked against direct runs afterwards. *)
let warm_window tg ~seed ~stream ~seconds ~min_requests =
  let first = Array.make n_jobs None in
  let first_lock = Mutex.create () in
  let per = Array.make clients ([], 0, []) in
  let per_job = Array.init clients (fun _ -> Array.make n_jobs 0) in
  let stop_at = now () +. seconds in
  let worker c k fd =
    let st = Random.State.make [| seed; stream; c |] in
    let lat = ref [] and n = ref 0 and bad = ref [] in
    while now () < stop_at || !n * clients < min_requests do
      let j = Random.State.int st n_jobs in
      let t0 = now () in
      let r = tg.rt fd ~req:(req_id k !n) Protocol.Interactive catalog.(j) in
      let t1 = now () in
      lat := (t1, (t1 -. t0) *. 1000.) :: !lat;
      incr n;
      per_job.(c).(j) <- per_job.(c).(j) + 1;
      match r with
      | Refused _ -> bad := (j, r) :: !bad
      | Payload p -> (
          Mutex.lock first_lock;
          let f = first.(j) in
          if f = None then first.(j) <- Some p;
          Mutex.unlock first_lock;
          match f with
          | Some q when not (equal_stable p q) -> bad := (j, r) :: !bad
          | _ -> ())
    done;
    per.(c) <- (!lat, !n, !bad)
  in
  let t0 = now () in
  on_connections tg worker;
  let wall = now () -. t0 in
  let lat = List.concat_map (fun (l, _, _) -> l) (Array.to_list per) in
  let lat = List.sort compare lat in
  let n = Array.fold_left (fun a (_, n, _) -> a + n) 0 per in
  let bad = List.concat_map (fun (_, _, b) -> b) (Array.to_list per) in
  let count j = Array.fold_left (fun a c -> a + c.(j)) 0 per_job in
  (t0, lat, n, bad, first, count, wall)

let populate tg seed =
  let st = Random.State.make [| seed; 13 |] in
  fst (pass tg ~lane:Protocol.Bulk (shuffle st (Array.init n_jobs Fun.id)))

let run_warm ~cli ~t_start ~seed ~seconds =
  (* set-up, from the program's start: a fresh daemon, the catalog
     computed and stored, and an untimed warm-up on the same daemon *)
  let d = spawn ~cli in
  let tg = target d.socket in
  let populated = populate tg seed in
  ignore
    (warm_window tg ~seed ~stream:21 ~seconds:0.
       ~min_requests:warmup_requests);
  Gc.full_major ();
  let setup_s = now () -. t_start in
  let start, lat, n, bad, first, count, _ =
    warm_window tg ~seed ~stream:22 ~seconds ~min_requests:(3 * slice)
  in
  let rate, p50, p90, slices = sliced ~start ~size:slice (Array.of_list lat) in
  let s = status d in
  let rss = peak_rss_mb d.pid in
  stop_daemon d;
  (* A request fails when it is refused, when its payload differs from
     its job's first reply, or when that first reply differs from the
     direct run (then every request for the job carried it). *)
  let t = tally () in
  let wrong = ref false in
  List.iter
    (fun (j, r) ->
      match r with
      | Refused m -> note t (Printf.sprintf "%s: %s" (job_name catalog.(j)) m)
      | Payload _ ->
          wrong := true;
          note t
            (Printf.sprintf "%s: reply differs from the job's first reply"
               (job_name catalog.(j))))
    bad;
  Array.iteri
    (fun j f ->
      match f with
      | Some p ->
          let t' = tally () in
          if check_reply t' j (Payload p) then begin
            wrong := true;
            t.problems <- t'.problems @ t.problems;
            t.failed <- t.failed + count j
          end
      | None -> ())
    first;
  let failed = t.failed in
  (* the set-up's replies are checked too, but not counted *)
  Array.iter
    (fun (j, _, r) -> if check_reply t j r then wrong := true)
    populated;
  let ms = sorted (List.map snd lat) in
  let hot = Json.member "hot" s in
  { correct = not !wrong;
    attempted = n;
    failed;
    problems = t.problems;
    metrics =
      [ metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MB" rss;
        metric "pass_ratio" "ratio" (1. -. (float failed /. float n));
        metric "rate_per_s" "1/s" rate;
        metric "p50_ms" "ms" p50;
        metric "p90_ms" "ms" p90 ];
    detail =
      [ ("workload", Json.String "vrmd-warm");
        ("operation", Json.String "one interactive-lane request, a hot-tier hit");
        ("catalog_jobs", Json.Int n_jobs);
        ("requests", Json.Int n);
        ("slices", Json.Int slices);
        ("slice_size", Json.Int slice);
        ("p90_samples_beyond", Json.Int (beyond slice 90.));
        ( "p99_ms",
          if beyond n 99. >= 10 then Json.Float (percentile ms 99.) else Json.Null );
        ("p99_samples_beyond", Json.Int (beyond n 99.));
        ("hot_hits", Json.Int (int_member [ "hot_hits" ] hot));
        ("disk_hits", Json.Int (int_member [ "disk_hits" ] hot));
        ("misses", Json.Int (int_member [ "misses" ] hot)) ] }

(* ---- traced run ----------------------------------------------------------- *)

(* The traced run cannot put spans inside the daemon, so it serves the
   same requests from an in-process stand-in: the library's Scheduler
   behind a listener written here, which handles a request as
   Server.serve does (look up, Scheduler.submit, Scheduler.await, reply),
   with a span around each of those calls. Both sides frame messages with
   the library's Protocol.send and Protocol.recv, as the daemon and
   Client.roundtrip do; those calls, JSON text included, are the
   transport. *)

type replica = {
  sched : Scheduler.t;
  rsocket : string;
  rcache : string;
  stop : bool Atomic.t;
  listener : Thread.t;
}

let handle sched k fd =
  let rec loop seq =
    match Protocol.recv fd with
    | None -> ()
    | Some j ->
        let req = req_id k seq in
        Span.run ~req "server.handle" (fun root ->
            let request =
              Span.run ~parent:root ~req "server.decode" (fun _ ->
                  Protocol.request_of_json j)
            in
            let resp =
              match request with
              | Protocol.Submit { job; jobs; lane; _ } -> (
                  match Scheduler.lookup_job job with
                  | Error m -> Protocol.Error_r m
                  | Ok spec -> (
                      let tk =
                        Span.run ~parent:root ~req "service.submit" (fun _ ->
                            Scheduler.submit sched ~jobs ~lane spec)
                      in
                      let outcome, meta =
                        Span.run ~parent:root ~req "service.await" (fun _ ->
                            Scheduler.await sched tk)
                      in
                      match outcome with
                      | Scheduler.Done p ->
                          Protocol.Result
                            (Json.Obj
                               [ ("data", p);
                                 ("from_cache", Json.Bool meta.Scheduler.from_cache);
                                 ("wall_s", Json.Float meta.Scheduler.wall_s) ])
                      | _ -> Protocol.Error_r "job did not complete"))
              | _ -> Protocol.Error_r "unexpected request"
            in
            let out =
              Span.run ~parent:root ~req "server.encode" (fun _ ->
                  Protocol.response_to_json resp)
            in
            Span.run ~parent:root ~req "server.write" (fun _ ->
                Protocol.send fd out));
        loop (seq + 1)
  in
  (try loop 0
   with Unix.Unix_error _ | Failure _ | Protocol.Frame_too_large _ -> ());
  try Unix.close fd with _ -> ()

let replica_start () =
  ensure_run_dir ();
  incr counter;
  let base =
    Filename.concat run_dir (Printf.sprintf "r%d-%d" (Unix.getpid ()) !counter)
  in
  let rsocket = base ^ ".sock" and rcache = base ^ ".cache" in
  rm_rf rsocket;
  rm_rf rcache;
  let sched =
    Scheduler.create
      ~cache:(Store.create ~dir:rcache ~engine_version:Memmodel.Engine.version ())
      ()
  in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX rsocket);
  Unix.listen lfd 16;
  let stop = Atomic.make false in
  let listener =
    Thread.create
      (fun () ->
        let rec accept k =
          let fd, _ = Unix.accept lfd in
          if Atomic.get stop then Unix.close fd
          else begin
            ignore (Thread.create (handle sched k) fd);
            accept (k + 1)
          end
        in
        Fun.protect ~finally:(fun () -> Unix.close lfd) (fun () -> accept 0))
      ()
  in
  { sched; rsocket; rcache; stop; listener }

let replica_stop r =
  Atomic.set r.stop true;
  (* wake the listener with one last connection *)
  Option.iter Unix.close (try_connect r.rsocket);
  Thread.join r.listener;
  Scheduler.shutdown r.sched;
  rm_rf r.rsocket;
  rm_rf r.rcache

(* A client round trip as Client.roundtrip makes it, with spans: request
   encoding, the socket exchange (Protocol.send and Protocol.recv), reply
   decoding. *)
let traced_rt fd ~req lane job =
  Span.run ~req "client.roundtrip" (fun root ->
      let j =
        Span.run ~parent:root ~req "service.protocol.encode" (fun _ ->
            Protocol.request_to_json (submit_req lane job))
      in
      match
        Span.run ~parent:root ~req "client.socket" (fun _ ->
            Protocol.send fd j;
            Protocol.recv fd)
      with
      | Some b ->
          Span.run ~parent:root ~req "service.protocol.decode" (fun _ ->
              classify (Protocol.response_of_json b))
      | None -> Refused "connection closed"
      | exception e -> Refused ("transport: " ^ Printexc.to_string e))

(* Round-trip accounting shared by both vrmd parts. The transport is the
   client round trip minus the scheduler's time (submit and await) and
   minus the handler's own uninstrumented gaps (job lookup, wrapping the
   reply): it is request and reply encoding, decoding and the socket. *)
let service_metrics prefix aggs =
  let tot = Span.total_of aggs in
  let roundtrip = tot "client.roundtrip" in
  let submit = tot "service.submit" and await = tot "service.await" in
  let gaps = Span.self_of aggs "server.handle" in
  let transport = roundtrip -. submit -. await -. gaps in
  [ metric (prefix ^ "service.roundtrip_s") "s" roundtrip;
    metric (prefix ^ "service.requests") "count"
      (float (Span.count_of aggs "client.roundtrip"));
    metric (prefix ^ "service.submit.busy_s") "s" submit;
    metric (prefix ^ "service.await.wait_s") "s" await;
    metric (prefix ^ "service.transport_s") "s" transport;
    metric (prefix ^ "service.protocol.encode_s") "s" (tot "service.protocol.encode");
    metric (prefix ^ "service.protocol.decode_s") "s" (tot "service.protocol.decode");
    metric (prefix ^ "service.server_codec_s") "s"
      (tot "server.decode" +. tot "server.encode");
    metric (prefix ^ "accounted_ratio") "ratio"
      ((submit +. await +. transport) /. roundtrip) ]

let check_out problems out =
  let t = tally () in
  Array.iter
    (fun (j, _, r) ->
      if check_reply t j r then
        problems := (job_name catalog.(j) ^ ": traced payload differs") :: !problems)
    out;
  if t.failed > 0 then problems := t.problems @ !problems

let cold_rounds = 2

let traced_cold ~seed =
  let st = Random.State.make [| seed; 31 |] in
  let order = shuffle st (Array.init n_jobs Fun.id) in
  let problems = ref [] in
  (* untraced and traced passes alternate, each on a fresh stand-in; the
     untraced ones run the same client code with spans off *)
  let one_pass traced =
    let r = replica_start () in
    Span.enabled := traced;
    let out, wall = pass (target ~rt:traced_rt r.rsocket) ~lane:Protocol.Bulk order in
    Span.enabled := false;
    let c = Scheduler.counters r.sched in
    replica_stop r;
    (out, wall, c)
  in
  Span.reset ();
  (* the scheduler's work for each job of a traced pass, as direct calls
     in the same order, storing into a fresh store *)
  let specs = Lazy.force specs in
  let bytes = ref 0 in
  let decompose k =
    let dir = Filename.concat run_dir (Printf.sprintf "s%d" (Unix.getpid ())) in
    rm_rf dir;
    let store = Store.create ~dir ~engine_version:Memmodel.Engine.version () in
    Span.enabled := true;
    Array.iteri
      (fun i j ->
        let _, b = direct ~store ~req:((50_000_000 * (k + 1)) + i) specs.(j) in
        bytes := !bytes + b)
      order;
    Span.enabled := false;
    rm_rf dir
  in
  let rounds =
    List.init cold_rounds (fun k ->
        let _, u_wall, _ = one_pass false in
        let out, t_wall, c = one_pass true in
        decompose k;
        (t_wall /. u_wall, t_wall, out, c))
  in
  let t_wall = median (List.map (fun (_, w, _, _) -> w) rounds) in
  let overhead = median (List.map (fun (r, _, _, _) -> r) rounds) -. 1. in
  let count f = List.fold_left (fun a (_, _, _, c) -> a + f c) 0 rounds in
  let spans = Span.all () in
  Span.enabled := false;
  List.iter (fun (_, _, out, _) -> check_out problems out) rounds;
  let aggs = Span.aggregate spans in
  let tot = Span.total_of aggs in
  let exec =
    tot "analysis.driver.analyze" +. tot "memmodel.litmus.run"
    +. tot "refinement.check" +. tot "cache.codec.encode" +. tot "cache.store.add"
  in
  let p = "vrmd-cold." in
  let metrics =
    [ metric (p ^ "pass_s") "s" t_wall;
      metric (p ^ "trace_overhead_ratio") "ratio" overhead ]
    @ service_metrics p aggs
    @ [ metric (p ^ "analysis.driver.busy_s") "s" (tot "analysis.driver.analyze");
        metric (p ^ "analysis.driver.calls") "count"
          (float (Span.count_of aggs "analysis.driver.analyze"));
        metric (p ^ "memmodel.litmus.busy_s") "s" (tot "memmodel.litmus.run");
        metric (p ^ "refinement.check.busy_s") "s" (tot "refinement.check");
        metric (p ^ "cache.codec.encode_s") "s" (tot "cache.codec.encode");
        metric (p ^ "cache.store.add_s") "s" (tot "cache.store.add");
        metric (p ^ "cache.store.bytes") "bytes" (float !bytes);
        metric (p ^ "exec_accounted_ratio") "ratio"
          (exec /. tot "service.await");
        metric (p ^ "service.static_served_ratio") "ratio"
          (float (count (fun c -> c.Scheduler.static_served))
          /. float (count (fun c -> c.Scheduler.refine_jobs)));
        metric (p ^ "service.refine_jobs") "count"
          (float (count (fun c -> c.Scheduler.refine_jobs)));
        metric (p ^ "service.coalesced") "count"
          (float (count (fun c -> c.Scheduler.coalesced)));
        metric (p ^ "service.shed") "count"
          (float
             (count (fun c ->
                  c.Scheduler.interactive.lane_shed + c.Scheduler.bulk.lane_shed))) ]
  in
  (metrics, spans, !problems)

let traced_requests = 4000
let warm_rounds = 4

let traced_warm ~seed =
  let problems = ref [] in
  let r = replica_start () in
  let specs = Lazy.force specs in
  Array.iter
    (fun spec -> ignore (Scheduler.run r.sched ~lane:Protocol.Bulk spec))
    specs;
  (* untraced and traced windows alternate; the untraced ones run the
     same client code with spans off *)
  let tg = target ~rt:traced_rt r.rsocket in
  let per_round = traced_requests / warm_rounds in
  let window stream =
    warm_window tg ~seed ~stream ~seconds:0. ~min_requests:per_round
  in
  ignore (warm_window tg ~seed ~stream:41 ~seconds:0. ~min_requests:warmup_requests);
  let hot = Scheduler.hot r.sched in
  Span.reset ();
  let rounds =
    List.init warm_rounds (fun k ->
        let _, _, u_n, _, _, _, u_wall = window (100 + k) in
        let h0 = Hot.counters hot in
        Span.enabled := true;
        let _, _, t_n, bad, first, _, t_wall = window (200 + k) in
        Span.enabled := false;
        let h1 = Hot.counters hot in
        let hits = h1.Hot.hot_hits - h0.Hot.hot_hits in
        let lookups = hits + h1.Hot.disk_hits - h0.Hot.disk_hits
                      + h1.Hot.misses - h0.Hot.misses in
        ((float u_n /. u_wall) /. (float t_n /. t_wall), t_n, bad, first, hits, lookups))
  in
  let spans = Span.all () in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rounds in
  let t_n = sum (fun (_, n, _, _, _, _) -> n) in
  let hits = sum (fun (_, _, _, _, h, _) -> h) in
  let lookups = sum (fun (_, _, _, _, _, l) -> l) in
  let overhead = median (List.map (fun (r, _, _, _, _, _) -> r) rounds) -. 1. in
  (* the hot tier, probed directly as often as the traced run asked it *)
  let keys = Array.map (fun s -> Scheduler.cache_key s) specs in
  let st = Random.State.make [| seed; 44 |] in
  let (), hot_find =
    time (fun () ->
        for _ = 1 to t_n do
          ignore (Hot.find hot keys.(Random.State.int st n_jobs))
        done)
  in
  (* the disk tier, first touch after a restart: a fresh store on the
     same directory *)
  let disk = Store.create ~dir:r.rcache ~engine_version:Memmodel.Engine.version () in
  let disk_found = ref 0 in
  let (), disk_find =
    time (fun () ->
        Array.iter
          (fun k -> if Store.find disk k <> None then incr disk_found)
          keys)
  in
  replica_stop r;
  List.iter
    (fun (_, _, bad, first, _, _) ->
      if bad <> [] then problems := "traced warm replies differ" :: !problems;
      check_out problems
        (Array.of_list
           (List.filter_map
              (fun (j, f) -> Option.map (fun p -> (j, 0., Payload p)) f)
              (List.mapi (fun j f -> (j, f)) (Array.to_list first)))))
    rounds;
  if !disk_found <> n_jobs then
    problems := "disk tier lost catalog entries" :: !problems;
  let aggs = Span.aggregate spans in
  let p = "vrmd-warm." in
  let metrics =
    [ metric (p ^ "trace_overhead_ratio") "ratio" overhead ]
    @ service_metrics p aggs
    @ [ metric (p ^ "cache.hot.find_s") "s" hot_find;
        metric (p ^ "cache.hot.lookups") "count" (float lookups);
        metric (p ^ "cache.hot.hit_ratio") "ratio" (float hits /. float lookups);
        metric (p ^ "cache.store.find_s") "s" disk_find;
        metric (p ^ "cache.store.finds") "count" (float n_jobs) ]
  in
  (metrics, spans, !problems)
