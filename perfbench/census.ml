(* The traced run. Every traced run reports every per-layer metric, so it
   runs a traced census of all four workloads, whichever workload was
   named: three rounds of corpus sweeps, two vrmd-cold passes, 4,000 warm
   requests and 200 storms. The amounts are fixed, not timed, so every
   count repeats exactly for a given seed and every busy time covers the
   same work on every commit. Each part alternates untraced and traced
   rounds of the same work, which gives the tracing overhead. Spans are
   kept in memory and written, one JSON object a line, to
   .perfbench-run/spans-<workload>.jsonl when the run ends. *)

open Common

let run ~workload ~seed =
  let parts =
    [ ("refine-sweep", fun () -> Refine_sweep.traced ~seed);
      ("vrmd-cold", fun () -> Vrmd.traced_cold ~seed);
      ("vrmd-warm", fun () -> Vrmd.traced_warm ~seed);
      ("kcore-fuzz", fun () -> Kcore_fuzz.traced ~seed) ]
  in
  let results = List.map (fun (name, f) -> (name, f ())) parts in
  let metrics = List.concat_map (fun (_, (m, _, _)) -> m) results in
  let problems = List.concat_map (fun (_, (_, _, p)) -> p) results in
  let spans = List.concat_map (fun (_, (_, s, _)) -> s) results in
  ensure_run_dir ();
  Span.write
    (Filename.concat run_dir
       (Printf.sprintf "spans-%s.jsonl" workload))
    spans;
  { correct = problems = [];
    attempted = List.length results;
    failed = 0;
    problems;
    metrics;
    detail =
      [ ("mode", Json.String "traced census");
        ("spans", Json.Int (List.length spans)) ] }
