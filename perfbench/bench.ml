(* The benchmark program. run.py builds it and calls

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH

   With --trace 0 it runs one workload untraced and prints, as its last
   line, the result object with every end-to-end metric. With --trace 1
   it runs the traced census (see census.ml) and prints every per-layer
   metric instead. Exit status 0 means every output check passed. *)

let workloads = [ "refine-sweep"; "vrmd-cold"; "vrmd-warm"; "kcore-fuzz" ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.
  and trace = ref 0 and cli = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced run or traced census");
      ("--cli", Arg.Set_string cli, "PATH the vrm-cli executable") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: bad --seconds or --trace";
    exit 2
  end;
  let seed = !seed and seconds = !seconds and t_start = Common.t_start in
  let outcome =
    if !trace = 1 then Census.run ~workload:!workload ~seed
    else
      match !workload with
      | "refine-sweep" -> Refine_sweep.run ~t_start ~seed ~seconds
      | "vrmd-cold" -> Vrmd.run_cold ~cli:!cli ~t_start ~seed ~seconds
      | "vrmd-warm" -> Vrmd.run_warm ~cli:!cli ~t_start ~seed ~seconds
      | _ -> Kcore_fuzz.run ~t_start ~seed ~seconds
  in
  let ok = Common.emit outcome in
  Common.cleanup_run_dir ();
  exit (if ok then 0 else 1)
