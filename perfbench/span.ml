(* In-memory spans for the traced run. A span records a name, start and
   end times, the span that caused it and the request (or storm, or
   sweep) it belongs to. Spans are recorded from the benchmark's own
   files, around calls into the repository's public functions; nothing
   inside the libraries is instrumented. When tracing is off, [run] is a
   plain call. *)

type t = {
  id : int;
  parent : int;  (* 0 = a root span *)
  req : int;
  name : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let spans : t list ref = ref []

let fresh_id () = Atomic.fetch_and_add next_id 1

let record s =
  Mutex.lock lock;
  spans := s :: !spans;
  Mutex.unlock lock

(* [run ~parent ~req name f] times [f id], where [id] is the new span's
   identifier for its children to name as parent. *)
let run ?(parent = 0) ~req name f =
  if not !enabled then f 0
  else begin
    let id = fresh_id () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      record { id; parent; req; name; t0; t1 = Unix.gettimeofday () }
    in
    match f id with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let reset () =
  Mutex.lock lock;
  spans := [];
  Mutex.unlock lock

let all () =
  Mutex.lock lock;
  let s = !spans in
  Mutex.unlock lock;
  s

(* Per span name: number of spans, total duration, and self time — the
   duration minus the part covered by the span's children. Children of
   one span never overlap in time (each parent's children run on the
   parent's thread, one after another). *)
type agg = { count : int; total : float; self : float }

let aggregate spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let d = s.t1 -. s.t0 in
        Hashtbl.replace child s.parent
          (d +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let c = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      let a =
        Option.value
          ~default:{ count = 0; total = 0.; self = 0. }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { count = a.count + 1; total = a.total +. d; self = a.self +. d -. c })
    spans;
  by_name

let total_of aggs name =
  match Hashtbl.find_opt aggs name with Some a -> a.total | None -> 0.

let self_of aggs name =
  match Hashtbl.find_opt aggs name with Some a -> a.self | None -> 0.

let count_of aggs name =
  match Hashtbl.find_opt aggs name with Some a -> a.count | None -> 0

(* One JSON object per line, oldest first. *)
let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f}\n"
        s.id s.parent s.req s.name s.t0 s.t1)
    (List.sort (fun a b -> compare a.t0 b.t0) spans);
  close_out oc
