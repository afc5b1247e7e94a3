open Memmodel

let version = "lint-2"

type pass = {
  p_name : string;
  p_verdict : Diag.verdict;
  p_diags : Diag.t list;
  p_ms : float;  (** wall time of the pass, milliseconds *)
  p_stats : Absint.stats;
      (** summed over the thread CFGs; zero for structural passes *)
}

type t = {
  a_name : string;
  a_prog_digest : string;
  a_passes : pass list;
  a_overall : Diag.verdict;
  a_refinement : Diag.verdict;
}

let sum_stats = List.fold_left Absint.add_stats Absint.zero_stats

let mk_pass name (f : unit -> Diag.t list * Absint.stats) =
  let t0 = Sys.time () in
  let diags, st = f () in
  let ms = (Sys.time () -. t0) *. 1000. in
  { p_name = name;
    p_verdict = Diag.verdict_of_diags diags;
    p_diags = diags;
    p_ms = ms;
    p_stats = st }

let structural f () = (f (), Absint.zero_stats)

let fixpoint f () =
  let diags, stats = f () in
  (diags, sum_stats stats)

(* Threads (structurally) touching [base] anywhere. *)
let touching_threads (prog : Prog.t) base =
  List.filter
    (fun (th : Prog.thread) ->
      let rec go = function
        | [] -> false
        | ins :: rest ->
            (match ins with
            | Instr.If (_, a, b) -> go a || go b
            | Instr.While (_, body) -> go body
            | _ -> Cfg.access_base ins = Some base)
            || go rest
      in
      go th.Prog.code)
    prog.Prog.threads

let analyze_prog ?(exempt = []) ?(initial_owners = []) ~name (prog : Prog.t)
    : t =
  let passes =
    [ mk_pass "drf-lockset"
        (fixpoint (fun () -> Lockset.run ~exempt ~initial_owners prog));
      mk_pass "barriers" (fixpoint (fun () -> Barriers.run prog));
      mk_pass "write-once" (fixpoint (fun () -> Write_once.run prog));
      mk_pass "transactional" (fixpoint (fun () -> Transactional.run prog));
      mk_pass "tlbi" (fixpoint (fun () -> Tlbi.run prog));
      mk_pass "ownership"
        (fixpoint (fun () -> Ownership.run ~exempt ~initial_owners prog));
      mk_pass "delay" (structural (fun () -> Delay.run prog)) ]
  in
  let overall =
    List.fold_left
      (fun acc p -> Diag.worst acc p.p_verdict)
      Diag.Pass passes
  in
  let verdict_of n =
    match List.find_opt (fun p -> p.p_name = n) passes with
    | Some p -> p.p_verdict
    | None -> Diag.Pass
  in
  (* Static Theorem 2: the push/pull discipline holds with adequate
     barriers, and every multi-thread exempt base is a recognizable lock
     internal (so its races are the well-synchronized ones the theorem
     permits). Anything weaker stays Unknown — never Fail, since the
     analyzer cannot exhibit a non-SC behavior. *)
  let refinement =
    let contended_exempt_ok =
      List.for_all
        (fun b ->
          List.length (touching_threads prog b) < 2 || Cfg.is_lock_base b)
        exempt
    in
    match
      ( verdict_of "drf-lockset",
        verdict_of "ownership",
        verdict_of "barriers" )
    with
    | Diag.Pass, Diag.Pass, Diag.Pass when contended_exempt_ok -> Diag.Pass
    | _ -> Diag.Unknown
  in
  { a_name = name;
    a_prog_digest = Fingerprint.prog prog;
    a_passes = passes;
    a_overall = overall;
    a_refinement = refinement }

let analyze (e : Sekvm.Kernel_progs.entry) : t =
  analyze_prog ~exempt:e.Sekvm.Kernel_progs.exempt
    ~initial_owners:e.Sekvm.Kernel_progs.initial_owners
    ~name:e.Sekvm.Kernel_progs.name e.Sekvm.Kernel_progs.prog

let diags t = Diag.sort (List.concat_map (fun p -> p.p_diags) t.a_passes)

let definite_codes t =
  diags t
  |> List.filter_map (fun (d : Diag.t) ->
         if d.Diag.d_certainty = Diag.Definite then
           Some (Diag.code_name d.Diag.d_code)
         else None)
  |> List.sort_uniq compare

let pass_verdict t name =
  match List.find_opt (fun p -> p.p_name = name) t.a_passes with
  | Some p -> p.p_verdict
  | None -> Diag.Pass

let code_verdict t code =
  Diag.verdict_of_diags
    (List.filter (fun (d : Diag.t) -> d.Diag.d_code = code) (diags t))

let to_json t =
  let open Cache.Json in
  Obj
    [ ("kind", String "lint");
      ("name", String t.a_name);
      ("prog_digest", String t.a_prog_digest);
      ("analyzer", String version);
      ("overall", String (Diag.verdict_name t.a_overall));
      ("refinement", String (Diag.verdict_name t.a_refinement));
      ( "passes",
        List
          (List.map
             (fun p ->
               Obj
                 [ ("name", String p.p_name);
                   ("verdict", String (Diag.verdict_name p.p_verdict));
                   ("diags", List (List.map Diag.to_json p.p_diags)) ])
             t.a_passes) ) ]

let pp fmt t =
  Format.fprintf fmt "@[<v>lint %s: %s (refinement %s)" t.a_name
    (Diag.verdict_name t.a_overall)
    (Diag.verdict_name t.a_refinement);
  List.iter
    (fun p ->
      Format.fprintf fmt "@,  %-13s %s" p.p_name
        (Diag.verdict_name p.p_verdict);
      List.iter (fun d -> Format.fprintf fmt "@,    @[<v>%a@]" Diag.pp d)
        p.p_diags)
    t.a_passes;
  Format.fprintf fmt "@]"

let pp_stats fmt t =
  Format.fprintf fmt "@[<v>lint %s" t.a_name;
  List.iter
    (fun p ->
      Format.fprintf fmt
        "@,  %-13s %7.3f ms  nodes %-5d edges %-5d iters %-6d widens %d"
        p.p_name p.p_ms p.p_stats.Absint.st_nodes p.p_stats.Absint.st_edges
        p.p_stats.Absint.st_iters p.p_stats.Absint.st_widens)
    t.a_passes;
  Format.fprintf fmt "@]"

let to_program_summary ~expect t :
    Vrm.Certificate.program_summary option =
  let drf =
    Diag.worst (pass_verdict t "drf-lockset") (pass_verdict t "ownership")
  in
  let barrier = pass_verdict t "barriers" in
  match (drf, barrier, t.a_refinement) with
  | Diag.Unknown, _, _ | _, Diag.Unknown, _ | _, _, Diag.Unknown -> None
  | _ ->
      let ps_drf = drf = Diag.Pass in
      let ps_barrier = barrier = Diag.Pass in
      let ps_refine = t.a_refinement = Diag.Pass in
      Some
        { Vrm.Certificate.ps_name = t.a_name;
          ps_prog_digest = t.a_prog_digest;
          ps_drf;
          ps_barrier;
          ps_refine;
          ps_as_expected =
            ps_drf = expect.Sekvm.Kernel_progs.e_drf
            && ps_barrier = expect.Sekvm.Kernel_progs.e_barrier
            && ps_refine = expect.Sekvm.Kernel_progs.e_refine }
