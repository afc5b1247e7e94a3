(* Shared helpers: clocks, order statistics, process memory, the result
   line, and payload comparison modulo volatile fields. *)

module Json = Cache.Json

let now = Unix.gettimeofday

(* Taken when the program's own modules start initialising: the start of
   the first set-up. *)
let t_start = now ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- order statistics ------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array: the value at rank
   ceil(p/100 * n). *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* How many samples lie strictly above the nearest-rank percentile. *)
let beyond n p =
  let rank = int_of_float (Float.ceil (p /. 100. *. float n)) in
  n - max 1 rank

let median xs = percentile (sorted xs) 50.

(* Robust figures for a timed window: the completions, as (end time,
   latency ms) in end-time order, are cut into consecutive slices of
   [size]; the window's rate and percentiles are the medians of the
   slices' own figures, so a transient slowdown of the machine moves
   one slice, not the result. A trailing partial slice is left out.
   Returns (rate per s, p50 ms, p90 ms, slices). *)
let sliced ~start ~size (done_ : (float * float) array) =
  let n = Array.length done_ / size in
  let rates = ref [] and p50s = ref [] and p90s = ref [] in
  for k = 0 to n - 1 do
    let t0 = if k = 0 then start else fst done_.((k * size) - 1) in
    let t1 = fst done_.(((k + 1) * size) - 1) in
    let ms = sorted (List.init size (fun i -> snd done_.((k * size) + i))) in
    rates := (float size /. (t1 -. t0)) :: !rates;
    p50s := percentile ms 50. :: !p50s;
    p90s := percentile ms 90. :: !p90s
  done;
  (median !rates, median !p50s, median !p90s, n)

(* ---- process memory ---------------------------------------------------- *)

(* VmHWM (peak resident set) of a process, in MiB; nan when unreadable. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float kb /. 1024.)
            else scan ()
      in
      let r = scan () in
      close_in ic;
      r

(* ---- the result ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Everything a workload reports: the result object's four fields, plus
   detail (sample counts, extra figures) printed on the line before. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  detail : (string * Json.t) list;
  problems : string list;  (* why [correct] is false *)
}

let finite v = Float.is_finite v

let emit (o : outcome) =
  let bad = List.filter (fun m -> not (finite m.value)) o.metrics in
  let correct = o.correct && bad = [] in
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) o.problems;
  List.iter
    (fun m -> prerr_endline ("perfbench: metric not measured: " ^ m.name))
    bad;
  print_endline (Json.to_string (Json.Obj [ ("detail", Json.Obj o.detail) ]));
  let metrics =
    List.map
      (fun m ->
        ( m.name,
          Json.Obj
            [ ("value", Json.Float (if finite m.value then m.value else 0.));
              ("unit", Json.String m.unit_) ] ))
      o.metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", Json.Obj metrics) ]));
  correct

(* ---- payload comparison -------------------------------------------------- *)

(* Fields whose values depend on when and where a job ran, never on what
   it computed: exploration wall clocks and the serving wrapper's
   timing. Everything else in a payload must match a direct run. *)
let volatile = [ "wall_s" ]

let rec equal_stable (a : Json.t) (b : Json.t) =
  match (a, b) with
  | Json.Obj xs, Json.Obj ys ->
      let keep = List.filter (fun (k, _) -> not (List.mem k volatile)) in
      let xs = keep xs and ys = keep ys in
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && equal_stable x y) xs ys
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 equal_stable xs ys
  | _ -> a = b

(* ---- seeded choices ----------------------------------------------------- *)

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---- scratch directory --------------------------------------------------- *)

(* Sockets, cache directories and span files live under this directory
   of the checkout (relative paths keep socket names short). *)
let run_dir = ".perfbench-run"

let ensure_run_dir () =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* Remove the run directory if nothing else is left in it. *)
let cleanup_run_dir () =
  try if Sys.readdir run_dir = [||] then Unix.rmdir run_dir
  with Sys_error _ | Unix.Unix_error _ -> ()
