(* UPEC-SSC benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe fold TRACE.jsonl [WALL_SECONDS]

   One process runs one workload, from the two halves the paper pairs:
   the formal detect / prove / certify paths of UPEC-SSC and the
   statistical timing evidence beside them (leak_stats). Formal work
   runs on one solver thread; no workload uses more than two domains.

   A run builds its inputs (set-up), then runs the workload's jobs in
   passes. With --trace 0 it reports the end-to-end metrics of
   untraced passes, their times calibrated against a host speed probe
   (probe.mli) because the shared host's speed drifts by up to 3x.
   With --trace 1 it runs one untraced and one traced
   pass (the order alternates with the seed's parity), folds the trace
   into per-layer self times and reports the per-layer metrics. Every
   job's output is checked; the last line of stdout is the summary
   object, and the full results document (per-metric sample count,
   median, quartiles, min and max, per-job outcomes, the span fold) is
   written to perfbench/out/. *)

let t_process = Unix.gettimeofday ()

module J = Upec.Json
module Sc = Scenarios.Scenario
module Stat = Scenarios.Stat
module R = Upec.Report

(* ---------------------------------------------------------------- *)
(* Workloads                                                         *)
(* ---------------------------------------------------------------- *)

type kind = Formal of Upec.Options.t | Leak

type workload = { w_name : string; w_kind : kind; w_specs : Sc.spec list }

let named names =
  List.map
    (fun n ->
      match Sc.find n with
      | Some s -> Sc.canonical s
      | None -> failwith ("unknown scenario " ^ n))
    names

let per_svar = { Upec.Options.default with jobs = Some 1 }

(* A pass of each workload is 2.5-8 s, so that a run repeats every job
   several times. The leak_stats scenarios reach a verdict at the first
   sample size on every seed, so its work does not depend on the seed:
   busted_timer_d3 escalates to 24 trials on about one seed in five. *)
let workloads =
  [
    {
      w_name = "detect";
      (* the CLI default: monolithic, one warm incremental solver *)
      w_kind = Formal Upec.Options.default;
      w_specs =
        named
          [
            "busted_timer_d3";
            "busted_timer_free_d3";
            "hwpe_progressive_d3";
            "prefetcher_d3";
          ];
    };
    {
      w_name = "prove";
      w_kind = Formal per_svar;
      w_specs = named [ "countermeasure_d3" ];
    };
    {
      w_name = "certify";
      w_kind = Formal { per_svar with certify = true; cert_jobs = 0 };
      w_specs = named [ "no_spies_d3"; "prefetcher_d3" ];
    };
    {
      w_name = "leak_stats";
      w_kind = Leak;
      w_specs =
        named
          [
            "hwpe_progressive_d3";
            "interrupt_victim_d3";
            "countermeasure_d3";
          ];
    };
  ]

(* The seed offsets the trial seeds of leak_stats (escalation reaches
   at most 96 trials per scenario); the formal workloads have no random
   input. *)
let trial_seed ~seed i = (seed * 1000) + i

(* ---------------------------------------------------------------- *)
(* Metrics                                                           *)
(* ---------------------------------------------------------------- *)

(* Every metric the benchmark reports: unit, layer, and — written down
   before any optimisation — the end-to-end metric and workloads it
   should move. *)
type metric_def = {
  m_name : string;
  m_unit : string;
  m_better : string;
  m_layer : string;
  m_moves : string;
}

let def ?(better = "lower") m_name m_unit m_layer m_moves =
  { m_name; m_unit; m_better = better; m_layer; m_moves }

let end_to_end =
  [
    def "setup_s" "s" "e2e" "";
    def "wall_s" "s" "e2e" "";
    def "peak_rss_mb" "MB" "e2e" "";
  ]

let formal_all = "wall_s on detect, prove, certify"

let per_layer =
  [
    def "soc.build_formal_s" "s" "soc" "setup_s on detect, prove, certify";
    def "soc.build_sim_s" "s" "soc" "setup_s, wall_s on leak_stats (small share)";
    def "isa.assemble_s" "s" "isa" "setup_s, wall_s on leak_stats (small share)";
    def "sim.create_s" "s" "sim" "setup_s, wall_s on leak_stats (small share)";
    def "sim.cycles" "count" "sim" "wall_s on leak_stats";
    def "sim.run_s" "s" "sim" "wall_s on leak_stats (most of it); detect barely (replay)";
    def "sim.ns_per_cycle" "ns" "sim" "wall_s on leak_stats (most of it); detect barely (replay)";
    def "stat.trials" "count" "stat" "wall_s on leak_stats";
    def "stat.escalations" "count" "stat" "wall_s on leak_stats";
    def "stat.sample_s" "s" "stat" "wall_s on leak_stats";
    def "stat.test_s" "s" "stat" "wall_s on leak_stats";
    def "upec.alg_s" "s" "upec" formal_all;
    def "upec.iterations" "count" "upec" formal_all;
    def "upec.replay_s" "s" "upec" "wall_s on detect";
    def "upec.alg.self_s" "s" "upec" formal_all;
    def "alg1.svar.self_s" "s" "upec" "wall_s on prove, certify";
    def "alg2.pair.self_s" "s" "upec" "wall_s on detect (busted_timer_free)";
    def "ipc.checks" "count" "ipc" "wall_s on detect, prove";
    def "ipc.check.self_s" "s" "ipc" "wall_s on detect, prove";
    def "ipc.pre_encode.self_s" "s" "ipc" "wall_s on detect, prove";
    def "unroll.advance.self_s" "s" "ipc" "wall_s on detect (unroll), prove";
    def "sat.solves" "count" "sat" "wall_s on prove most, detect and certify next; leak_stats none";
    def "sat.conflicts" "count" "sat" "wall_s on prove most, detect and certify next; leak_stats none";
    def "sat.propagations" "count" "sat" "wall_s on prove most, detect and certify next; leak_stats none";
    def "sat.restarts" "count" "sat" "wall_s on prove most, detect and certify next; leak_stats none";
    def "sat.solve.self_s" "s" "sat" "wall_s on prove most, detect and certify next; leak_stats none";
    def ~better:"higher" "sat.conflicts_per_s" "1/s" "sat" "wall_s on prove most, detect and certify next; leak_stats none";
    def ~better:"higher" "sat.props_per_s" "1/s" "sat" "wall_s on prove most, detect and certify next; leak_stats none";
    def ~better:"higher" "simp.reduced_solves" "count" "simp" "wall_s on certify; detect predicted flat";
    def ~better:"higher" "simp.vars_saved" "count" "simp" "wall_s on certify; detect predicted flat";
    def ~better:"higher" "simp.clauses_saved" "count" "simp" "wall_s on certify; detect predicted flat";
    def "simp.clause_keep_ratio" "ratio" "simp" "wall_s on certify; detect predicted flat";
    def "simp.rebuild.self_s" "s" "simp" "wall_s on certify; detect predicted flat";
    def "simp.snapshot.self_s" "s" "simp" "wall_s on certify; detect predicted flat";
    def "cert.proof_steps" "count" "cert" "wall_s on certify only; zero elsewhere";
    def ~better:"higher" "cert.unsat_checked" "count" "cert" "wall_s on certify only; zero elsewhere";
    def ~better:"higher" "cert.sat_checked" "count" "cert" "wall_s on certify only; zero elsewhere";
    def "cert.check_s" "s" "cert" "wall_s on certify only; zero elsewhere";
    def "cert.check.self_s" "s" "cert" "wall_s on certify only; zero elsewhere";
    def "cert.overhead_pct" "%" "cert" "wall_s on certify only; zero elsewhere";
    def "pool.tasks" "count" "parallel" "wall_s on prove, certify";
    def "pool.task.self_s" "s" "parallel" "wall_s on prove, certify";
    def "obs.trace_overhead_pct" "%" "obs" "none (the 5 % trace-overhead bar)";
    def ~better:"higher" "obs.span_coverage_pct" "%" "obs" "none (accounting check)";
    def "obs.untraced_remainder_s" "s" "obs" "none (accounting check)";
  ]

(* Linear-interpolation quartiles of a non-empty sample. *)
let quantile sorted q =
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let summary samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let q = quantile a in
  [
    ("n", J.Int (Array.length a));
    ("median", J.Float (q 0.5));
    ("q1", J.Float (q 0.25));
    ("q3", J.Float (q 0.75));
    ("min", J.Float a.(0));
    ("max", J.Float a.(Array.length a - 1));
  ]

let median samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  quantile a 0.5

(* ---------------------------------------------------------------- *)
(* Set-up                                                            *)
(* ---------------------------------------------------------------- *)

(* Inputs of one pass. Each pass gets its own freshly built set, so no
   pass runs on structures an earlier pass has warmed. *)
type inputs =
  | Formal_inputs of (Sc.spec * Upec.Spec.t) list
  | Leak_inputs of (Sc.spec * Soc.Config.t * Rtl.Bitvec.t array * (string * int) list) list

type setup_times = {
  su_total : float;
  su_build_formal : float;
  su_build_sim : float;
  su_assemble : float;
  su_create : float;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let set_up w jobs =
  let t0 = Unix.gettimeofday () in
  let zero =
    { su_total = 0.; su_build_formal = 0.; su_build_sim = 0.; su_assemble = 0.; su_create = 0. }
  in
  let inputs, times =
    match w.w_kind with
    | Formal _ ->
        let built, t =
          timed (fun () ->
              List.map (fun s -> (s, Upec.Cli.spec_of s.Sc.sp_design)) jobs)
        in
        (Formal_inputs built, { zero with su_build_formal = t })
    | Leak ->
        (* what the first trial of each scenario does before it steps:
           assemble the victim firmware, build the simulation SoC,
           create the engine — a check that every scenario loads *)
        let times = ref zero in
        let built =
          List.map
            (fun s ->
              let cfg = Sc.sim_config s in
              let (rom, symbols), ta =
                timed (fun () ->
                    Isa.Asm.assemble_with_symbols (Sc.firmware s cfg ~n:s.Sc.sp_secret))
              in
              let soc, tb = timed (fun () -> Soc.Builder.build cfg (Soc.Builder.Sim { rom })) in
              let _eng, tc = timed (fun () -> Sim.Engine.create soc.Soc.Builder.netlist) in
              times :=
                {
                  !times with
                  su_assemble = !times.su_assemble +. ta;
                  su_build_sim = !times.su_build_sim +. tb;
                  su_create = !times.su_create +. tc;
                };
              (s, cfg, rom, symbols))
            jobs
        in
        (Leak_inputs built, !times)
  in
  (inputs, { times with su_total = Unix.gettimeofday () -. t0 })

(* ---------------------------------------------------------------- *)
(* Passes                                                            *)
(* ---------------------------------------------------------------- *)

let counter_names =
  [
    "sat.solves";
    "sat.conflicts";
    "sat.propagations";
    "sat.restarts";
    "ipc.checks";
    "simp.reduced_solves";
    "simp.vars_saved";
    "simp.clauses_saved";
    "pool.tasks";
  ]

let counters () =
  let snap = (Obs.Metrics.snapshot ()).Obs.Metrics.counters in
  List.map (fun n -> (n, Option.value ~default:0 (List.assoc_opt n snap))) counter_names

type job_result = {
  jr_name : string;
  jr_seconds : float;
  jr_calibrated : float;  (* jr_seconds at the host's nominal speed *)
  jr_probe : float * float;  (* median probe times: chase, chains *)
  jr_verdict : string;
  jr_expected : string;
  jr_replay : bool option;
  jr_report : R.run option;
  jr_stat : Stat.result option;
  jr_problems : string list;
}

type pass = {
  p_traced : bool;
  p_timer : bool;  (* probed by the timer during its jobs *)
  p_wall : float;
  p_jobs : job_result list;
  p_counters : (string * int) list;  (* deltas over the pass *)
  p_digest : string;  (* every sampled observable, in order *)
  p_sim : (int * float) option;  (* leak_stats probe: cycles, seconds *)
}

let span = Obs.Trace.with_span

let formal_job options (s, spec) =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let report, replay =
    try
      let report =
        span "upec.alg" (fun () ->
            match s.Sc.sp_alg with
            | 2 -> Upec.Alg2.conclude_with options spec
            | _ -> Upec.Alg1.run_with options spec)
      in
      let replay =
        match report.R.verdict with
        | R.Vulnerable { cex; _ } ->
            Some
              (span "upec.replay" (fun () ->
                   Upec.Replay.check spec.Upec.Spec.soc.Soc.Builder.netlist cex))
        | _ -> None
      in
      (match (s.Sc.sp_expected, report.R.verdict) with
      | Sc.Expect_vulnerable, R.Vulnerable _ | Sc.Expect_secure, R.Secure _ -> ()
      | _, v -> fail "verdict %s" (Format.asprintf "%a" R.pp_verdict v));
      if replay = Some false then fail "witness does not replay";
      if options.Upec.Options.certify then begin
        match report.R.cert with
        | None -> fail "certified run carries no certificate accounting"
        | Some c -> if c.R.ct_cex_validated = Some false then fail "witness rejected by validation"
      end;
      (Some report, replay)
    with e ->
      fail "exception %s" (Printexc.to_string e);
      (None, None)
  in
  {
    jr_name = s.Sc.sp_name;
    jr_seconds = 0.;
    jr_calibrated = 0.;
    jr_probe = (0., 0.);
    jr_verdict =
      (match report with Some r -> Scenarios.Crosscheck.formal_verdict_string r | None -> "error");
    jr_expected = Sc.expectation_to_string s.Sc.sp_expected;
    jr_replay = replay;
    jr_report = report;
    jr_stat = None;
    jr_problems = List.rev !problems;
  }

let leak_job ~seed digest s =
  let problems = ref [] in
  let stat =
    try
      let sample i =
        let secret, public =
          span "stat.sample" (fun () -> Sc.sample_pair s ~seed:(trial_seed ~seed i))
        in
        Buffer.add_string digest (Printf.sprintf "%s %d %h %h\n" s.Sc.sp_name i secret public);
        (secret, public)
      in
      let r = span "stat.escalating" (fun () -> Stat.escalating ~sample ()) in
      (match (s.Sc.sp_expected, r.Stat.st_verdict) with
      | Sc.Expect_vulnerable, Stat.Leak | Sc.Expect_secure, Stat.No_leak -> ()
      | _, v -> problems := [ "stat verdict " ^ Stat.verdict_to_string v ]);
      Some r
    with e ->
      problems := [ "exception " ^ Printexc.to_string e ];
      None
  in
  {
    jr_name = s.Sc.sp_name;
    jr_seconds = 0.;
    jr_calibrated = 0.;
    jr_probe = (0., 0.);
    jr_verdict =
      (match stat with Some r -> Stat.verdict_to_string r.Stat.st_verdict | None -> "error");
    jr_expected = Sc.expectation_to_string s.Sc.sp_expected;
    jr_replay = None;
    jr_report = None;
    jr_stat = stat;
    jr_problems = !problems;
  }

(* The simulator probe of the traced leak_stats run: one fixed
   single-slice schedule per scenario firmware, timed from outside the
   pass. It counts cycles exactly, which the statistical trials do not
   expose. *)
let sim_probe inputs =
  List.fold_left
    (fun (cycles, secs) (_, cfg, rom, symbols) ->
      let (_, total, _), t =
        timed (fun () -> Sc.run_phases cfg ~rom ~symbols ~phases:[ ("victim", 200) ])
      in
      (cycles + total, secs +. t))
    (0, 0.) inputs

let run_pass w ~seed ~traced ~timer ~trace_file inputs =
  let c0 = counters () in
  let digest = Buffer.create 4096 in
  let job run name x =
    let go () = span "bench.job" ~attrs:[ ("job", Obs.Trace.Str name) ] (fun () -> run x) in
    let c = Probe.calibrated ~timer go in
    {
      c.result with
      jr_seconds = c.seconds;
      jr_calibrated = c.seconds *. c.factor;
      jr_probe = (c.chase_s, c.alu_s);
    }
  in
  if traced then Obs.Trace.set_sink (open_out trace_file);
  let jobs, wall =
    Fun.protect
      ~finally:(fun () -> if traced then Obs.Trace.close ())
      (fun () ->
        timed (fun () ->
            match (w.w_kind, inputs) with
            | Formal options, Formal_inputs l ->
                List.map (fun ((s, _) as x) -> job (formal_job options) s.Sc.sp_name x) l
            | Leak, Leak_inputs l ->
                List.map (fun (s, _, _, _) -> job (leak_job ~seed digest) s.Sc.sp_name s) l
            | _ -> assert false))
  in
  let c1 = counters () in
  {
    p_traced = traced;
    p_timer = timer;
    p_wall = wall;
    p_jobs = jobs;
    p_counters = List.map2 (fun (n, a) (_, b) -> (n, b - a)) c0 c1;
    p_digest = Digest.to_hex (Digest.string (Buffer.contents digest));
    p_sim = None;
  }

(* The figures that must repeat exactly between passes of one run. *)
let determinism_key p =
  let c n = List.assoc n p.p_counters in
  let trials =
    List.fold_left
      (fun acc j -> match j.jr_stat with Some r -> acc + r.Stat.st_n | None -> acc)
      0 p.p_jobs
  in
  [
    ("sat.conflicts", J.Int (c "sat.conflicts"));
    ("ipc.checks", J.Int (c "ipc.checks"));
    ("stat.trials", J.Int trials);
    ("sim.cycles", J.Int (match p.p_sim with Some (c, _) -> c | None -> 0));
    ("observable_digest", J.Str p.p_digest);
    ( "verdicts",
      J.List (List.map (fun j -> J.Str (j.jr_name ^ ":" ^ j.jr_verdict)) p.p_jobs) );
  ]

(* ---------------------------------------------------------------- *)
(* Per-layer metrics from the traced pass                           *)
(* ---------------------------------------------------------------- *)

let pass_calibrated p = List.fold_left (fun a j -> a +. j.jr_calibrated) 0. p.p_jobs

let sum_reports p f =
  List.fold_left (fun acc j -> match j.jr_report with Some r -> acc + f r | None -> acc) 0 p.p_jobs

let sum_reports_f p f =
  List.fold_left (fun acc j -> match j.jr_report with Some r -> acc +. f r | None -> acc) 0. p.p_jobs

let cert_totals r =
  match r.R.cert with Some c -> c.R.ct_totals | None -> Cert.Proof.zero_totals

let layer_values ~(fold : Fold.t) ~traced ~untraced ~setup ~sim =
  let attr n = Option.value ~default:0. (Fold.get fold.Fold.attributed n) in
  let incl n = Option.value ~default:0. (Fold.get fold.Fold.inclusive n) in
  let cnt n = float_of_int (List.assoc n traced.p_counters) in
  let per_s x t = if t > 0. then x /. t else 0. in
  let stat f =
    List.fold_left
      (fun acc j -> match j.jr_stat with Some r -> acc + f r | None -> acc)
      0 traced.p_jobs
  in
  let kept, full =
    List.fold_left
      (fun (k, f) j ->
        match j.jr_report with
        | Some { R.simp = Some red; _ } ->
            (k + red.Simp.red_clauses, f + red.Simp.red_full_clauses)
        | _ -> (k, f))
      (0, 0) traced.p_jobs
  in
  let sim_cycles, sim_run = sim in
  let alg_s = incl "upec.alg" in
  let check_s = sum_reports_f traced (fun r -> (cert_totals r).Cert.Proof.check_seconds) in
  [
    ("soc.build_formal_s", setup.su_build_formal);
    ("soc.build_sim_s", setup.su_build_sim);
    ("isa.assemble_s", setup.su_assemble);
    ("sim.create_s", setup.su_create);
    ("sim.cycles", float_of_int sim_cycles);
    ("sim.run_s", sim_run);
    ("sim.ns_per_cycle", 1e9 *. per_s sim_run (float_of_int sim_cycles));
    ("stat.trials", float_of_int (stat (fun r -> r.Stat.st_n)));
    ("stat.escalations", float_of_int (stat (fun r -> r.Stat.st_escalations)));
    ("stat.sample_s", attr "stat.sample");
    ("stat.test_s", attr "stat.escalating");
    ("upec.alg_s", alg_s);
    ("upec.iterations", float_of_int (sum_reports traced R.iterations));
    ("upec.replay_s", incl "upec.replay");
    ("upec.alg.self_s", attr "upec.alg");
    ("alg1.svar.self_s", attr "alg1.svar");
    ("alg2.pair.self_s", attr "alg2.pair");
    ("ipc.checks", cnt "ipc.checks");
    ("ipc.check.self_s", attr "ipc.check");
    ("ipc.pre_encode.self_s", attr "ipc.pre_encode");
    ("unroll.advance.self_s", attr "unroll.advance");
    ("sat.solves", cnt "sat.solves");
    ("sat.conflicts", cnt "sat.conflicts");
    ("sat.propagations", cnt "sat.propagations");
    ("sat.restarts", cnt "sat.restarts");
    ("sat.solve.self_s", attr "sat.solve");
    ("sat.conflicts_per_s", per_s (cnt "sat.conflicts") (attr "sat.solve"));
    ("sat.props_per_s", per_s (cnt "sat.propagations") (attr "sat.solve"));
    ("simp.reduced_solves", cnt "simp.reduced_solves");
    ("simp.vars_saved", cnt "simp.vars_saved");
    ("simp.clauses_saved", cnt "simp.clauses_saved");
    ("simp.clause_keep_ratio", per_s (float_of_int kept) (float_of_int full));
    ("simp.rebuild.self_s", attr "simp.rebuild");
    ("simp.snapshot.self_s", attr "simp.snapshot");
    ( "cert.proof_steps",
      float_of_int (sum_reports traced (fun r -> (cert_totals r).Cert.Proof.proof_steps)) );
    ( "cert.unsat_checked",
      float_of_int (sum_reports traced (fun r -> (cert_totals r).Cert.Proof.unsat_checked)) );
    ( "cert.sat_checked",
      float_of_int (sum_reports traced (fun r -> (cert_totals r).Cert.Proof.sat_checked)) );
    ("cert.check_s", check_s);
    ("cert.check.self_s", attr "cert.check");
    ("cert.overhead_pct", 100. *. per_s check_s alg_s);
    ("pool.tasks", cnt "pool.tasks");
    ("pool.task.self_s", attr "pool.task");
    ("obs.trace_overhead_pct", 100. *. ((pass_calibrated traced /. pass_calibrated untraced) -. 1.));
    ("obs.span_coverage_pct", 100. *. fold.Fold.covered /. traced.p_wall);
    ("obs.untraced_remainder_s", traced.p_wall -. fold.Fold.covered);
  ]

(* The layer a span's wall-attributed time counts towards. Spans
   named bench.* are the harness's own. *)
let layer_of_span name =
  match String.split_on_char '.' name with
  | ("upec" | "alg1" | "alg2") :: _ -> "upec"
  | ("ipc" | "unroll") :: _ -> "ipc"
  | ("pool" | "portfolio") :: _ -> "parallel"
  | (("sat" | "simp" | "cert" | "stat") as l) :: _ -> l
  | _ -> "harness"

(* The stated tolerance of the wall accounting: the time no span covers
   in the traced pass stays below this share of its wall time. *)
let accounting_tolerance = 0.01

(* Fold the traced pass's spans into the per-layer metrics, and check
   that the layers plus the untraced remainder account for its wall
   time. *)
let traced_metrics ~trace_file ~setup passes =
  let traced_pass = List.find (fun p -> p.p_traced) passes in
  let untraced_pass = List.find (fun p -> not p.p_traced) passes in
  let fold = Fold.fold (Fold.of_file trace_file) in
  Format.eprintf "%a" (Fold.pp ~wall:(Some traced_pass.p_wall)) fold;
  let sim = Option.value ~default:(0, 0.) traced_pass.p_sim in
  let v =
    layer_values ~fold ~traced:traced_pass ~untraced:untraced_pass ~setup ~sim
  in
  let layers = Hashtbl.create 16 in
  List.iter
    (fun (n, s) ->
      let l = layer_of_span n in
      Hashtbl.replace layers l (s +. Option.value ~default:0. (Hashtbl.find_opt layers l)))
    fold.Fold.attributed;
  let layers = List.sort compare (Hashtbl.fold (fun l s acc -> (l, s) :: acc) layers []) in
  let remainder = traced_pass.p_wall -. fold.Fold.covered in
  let accounting_ok = remainder <= accounting_tolerance *. traced_pass.p_wall in
  List.iter (fun (l, s) -> Printf.eprintf "layer %-10s %12.6f s\n" l s) layers;
  Printf.eprintf "layers + untraced remainder %.6f s = traced wall %.6f s; remainder within %.0f %%: %b\n"
    remainder traced_pass.p_wall (100. *. accounting_tolerance) accounting_ok;
  let fold_json =
    J.Obj
      [
        ( "layers_s",
          J.Obj (List.map (fun (l, s) -> (l, J.Float s)) layers) );
        ("untraced_remainder_s", J.Float remainder);
        ("remainder_tolerance", J.Float accounting_tolerance);
        ("accounting_ok", J.Bool accounting_ok);
        ("main_domain", J.Int fold.Fold.main_dom);
        ("traced_wall_s", J.Float traced_pass.p_wall);
        ("covered_s", J.Float fold.Fold.covered);
        ( "attributed_s",
          J.Obj (List.map (fun (n, s) -> (n, J.Float s)) fold.Fold.attributed) );
        ( "exclusive_s",
          J.List
            (List.map
               (fun ((d, n), s) ->
                 J.Obj [ ("dom", J.Int d); ("name", J.Str n); ("seconds", J.Float s) ])
               fold.Fold.exclusive) );
      ]
  in
  (v, fold_json)

(* ---------------------------------------------------------------- *)
(* Environment stamps                                                *)
(* ---------------------------------------------------------------- *)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (In_channel.input_all ic))
  with Sys_error _ -> None

(* The revision of a git checkout in the working directory, read from
   .git without running git; "unknown" elsewhere. *)
let git_revision () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = String.trim head in
      match String.index_opt head ' ' with
      | Some i when String.sub head 0 i = "ref:" -> (
          let ref_ = String.sub head (i + 1) (String.length head - i - 1) in
          match read_file (Filename.concat ".git" ref_) with
          | Some r -> String.trim r
          | None -> (
              match read_file ".git/packed-refs" with
              | None -> "unknown"
              | Some packed ->
                  String.split_on_char '\n' packed
                  |> List.find_map (fun l ->
                         match String.split_on_char ' ' l with
                         | [ sha; r ] when r = ref_ -> Some sha
                         | _ -> None)
                  |> Option.value ~default:"unknown"))
      | _ -> head)

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> 0.
  | Some s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             match String.split_on_char ':' l with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
             | _ -> None)
      |> Option.value ~default:0.

(* ---------------------------------------------------------------- *)
(* Entry point                                                       *)
(* ---------------------------------------------------------------- *)

(* Set-up is milliseconds long, so it is repeated, each repetition
   calibrated, and the median taken. *)
let setup_reps = 31

(* After a warm-up pass, untraced passes run back to back while the next
   one, as long as the last, still ends within --seconds; never fewer
   than two. A pass is 2.5-8 s on a 2-vCPU host, so a 30 s run makes 2
   (prove) to 10 (detect) timed passes. *)
let min_passes = 2

(* The end-to-end wall time of a run: per job, the median over the timed
   passes of its calibrated time ({!Probe.calibrated}), summed over the
   jobs. The raw wall times stay in the results document. *)
let calibrated_wall passes =
  match passes with
  | [] -> 0.
  | p :: _ ->
      List.fold_left ( +. ) 0.
        (List.mapi
           (fun i _ -> median (List.map (fun p -> (List.nth p.p_jobs i).jr_calibrated) passes))
           p.p_jobs)

let out_dir = Filename.concat "perfbench" "out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let job_json j =
  J.Obj
    ([
       ("name", J.Str j.jr_name);
       ("expected", J.Str j.jr_expected);
       ("verdict", J.Str j.jr_verdict);
       ("seconds", J.Float j.jr_seconds);
       ("calibrated_s", J.Float j.jr_calibrated);
       ("probe_chase_s", J.Float (fst j.jr_probe));
       ("probe_alu_s", J.Float (snd j.jr_probe));
       ("replay_ok", match j.jr_replay with Some b -> J.Bool b | None -> J.Null);
       ("problems", J.List (List.map (fun p -> J.Str p) j.jr_problems));
     ]
    @ (match j.jr_report with
      | Some r -> [ ("iterations", J.Int (R.iterations r)) ]
      | None -> [])
    @ match j.jr_stat with Some r -> [ ("stat", Stat.to_json r) ] | None -> [])

let run ~workload ~seed ~seconds ~trace =
  let w =
    match List.find_opt (fun w -> w.w_name = workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (one of: %s)\n" workload
          (String.concat ", " (List.map (fun w -> w.w_name) workloads));
        exit 2
  in
  mkdir_p out_dir;
  let jobs = w.w_specs in
  let harness_init = Unix.gettimeofday () -. t_process in
  let sets =
    List.init setup_reps (fun _ ->
        let c = Probe.calibrated ~timer:false (fun () -> snd (set_up w jobs)) in
        (c.Probe.result, c.Probe.factor))
  in
  let setup_samples = List.map (fun (t, k) -> (harness_init +. t.su_total) *. k) sets in
  let med f = median (List.map (fun (t, _) -> f t) sets) in
  let setup =
    {
      su_total = median setup_samples;
      su_build_formal = med (fun t -> t.su_build_formal);
      su_build_sim = med (fun t -> t.su_build_sim);
      su_assemble = med (fun t -> t.su_assemble);
      su_create = med (fun t -> t.su_create);
    }
  in
  let trace_file =
    Filename.concat out_dir (Printf.sprintf "%s-s%d.trace.jsonl" workload seed)
  in
  (* every pass runs on freshly built inputs, so that no pass runs on
     structures an earlier pass has warmed *)
  let pass ~traced ~timer =
    let inputs = fst (set_up w jobs) in
    let p = run_pass w ~seed ~traced ~timer ~trace_file inputs in
    match (trace, inputs) with
    | true, Leak_inputs l -> { p with p_sim = Some (sim_probe l) }
    | _ -> p
  in
  (* peak memory is read after the first pass: set-up plus one pass of
     the workload, whatever the number of passes that follow. That pass
     runs without the probe timer, which shifts the program's garbage
     collection a little and with it the peak, so its times are not
     calibrated like the others' and it counts only as a warm-up. *)
  let passes, rss =
    if trace then
      (* one untraced and one traced pass, in alternating order, both
         probed by the timer so that their calibrated times compare;
         the probes add about 1 % to the spans they fall in *)
      ( List.map
          (fun traced -> pass ~traced ~timer:true)
          (if seed land 1 = 1 then [ true; false ] else [ false; true ]),
        0. )
    else
      let t0 = Unix.gettimeofday () in
      let first = pass ~traced:false ~timer:false in
      let rss = peak_rss_mb () in
      let rec more acc last =
        let elapsed = Unix.gettimeofday () -. t0 in
        if List.length acc >= min_passes && elapsed +. last.p_wall > seconds then List.rev acc
        else
          let p = pass ~traced:false ~timer:true in
          more (p :: acc) p
      in
      (first :: more [] first, rss)
  in
  let timed_passes = List.filter (fun p -> p.p_timer) passes in
  (* correctness: every job of every pass, plus exact repetition *)
  let all_jobs = List.concat_map (fun p -> p.p_jobs) passes in
  let attempted = List.length all_jobs in
  let keys = List.map determinism_key passes in
  let repeat_ok = List.for_all (fun k -> k = List.hd keys) keys in
  let failed =
    List.length (List.filter (fun j -> j.jr_problems <> []) all_jobs)
    + if repeat_ok then 0 else List.length (List.hd passes).p_jobs
  in
  let values, samples, fold_json =
    if trace then
      let v, fold_json = traced_metrics ~trace_file ~setup passes in
      (v, List.map (fun (n, x) -> (n, [ x ])) v, [ ("fold", fold_json) ])
    else
      let walls = List.map pass_calibrated timed_passes in
      ( [ ("setup_s", setup.su_total); ("wall_s", calibrated_wall timed_passes); ("peak_rss_mb", rss) ],
        [ ("setup_s", setup_samples); ("wall_s", walls); ("peak_rss_mb", [ rss ]) ],
        [] )
  in
  let defs = if trace then per_layer else end_to_end in
  let correct = failed = 0 in
  let doc =
    J.Obj
      ([
         ("schema", J.Int 1);
         ("benchmark", J.Str "upec-ssc");
         ("workload", J.Str workload);
         ("seed", J.Int seed);
         ("seconds", J.Float seconds);
         ("trace", J.Bool trace);
         ("git_revision", J.Str (git_revision ()));
         ("cores", J.Int (Domain.recommended_domain_count ()));
         ( "probe",
           J.Obj
             [
               ("chase_nominal_s", J.Float Probe.chase_nominal);
               ("alu_nominal_s", J.Float Probe.alu_nominal);
               ("chase_weight", J.Float Probe.chase_weight);
               ("alu_weight", J.Float Probe.alu_weight);
               ("period_s", J.Float Probe.period);
             ] );
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ("fail_ratio", J.Float (float_of_int failed /. float_of_int attempted));
         ("repeat_ok", J.Bool repeat_ok);
         ( "passes",
           J.List
             (List.map2
                (fun p k ->
                  J.Obj
                    ([
                       ("traced", J.Bool p.p_traced);
                       ("timer_probed", J.Bool p.p_timer);
                       ("wall_s", J.Float p.p_wall);
                       ( "calibrated_s",
                         J.Float (pass_calibrated p) );
                     ]
                    @ k
                    @ [ ("jobs", J.List (List.map job_json p.p_jobs)) ]))
                passes keys) );
         ( "metrics",
           J.Obj
             (List.map
                (fun d ->
                  ( d.m_name,
                    J.Obj
                      ([
                         ("unit", J.Str d.m_unit);
                         ("better", J.Str d.m_better);
                         ("layer", J.Str d.m_layer);
                         ("moves", J.Str d.m_moves);
                         ("value", J.Float (List.assoc d.m_name values));
                       ]
                      @ summary (List.assoc d.m_name samples)) ))
                defs) );
       ]
      @ fold_json)
  in
  let doc_file =
    Filename.concat out_dir (Printf.sprintf "%s-s%d-t%d.json" workload seed (Bool.to_int trace))
  in
  let oc = open_out doc_file in
  output_string oc (J.to_string doc);
  close_out oc;
  List.iter
    (fun j ->
      if j.jr_problems <> [] then
        Printf.eprintf "FAILED %s: %s\n" j.jr_name (String.concat "; " j.jr_problems))
    all_jobs;
  if not repeat_ok then prerr_endline "FAILED: deterministic counters differ between passes";
  List.iter
    (fun d -> Printf.eprintf "%-26s %16.6f %s\n" d.m_name (List.assoc d.m_name values) d.m_unit)
    defs;
  print_endline
    (J.to_string_compact
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun d ->
                     ( d.m_name,
                       J.Obj
                         [
                           ("value", J.Float (List.assoc d.m_name values));
                           ("unit", J.Str d.m_unit);
                         ] ))
                   defs) );
          ]))

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe fold TRACE.jsonl [WALL_SECONDS]";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "fold" :: file :: rest -> (
      let wall =
        match rest with [] -> None | [ w ] -> float_of_string_opt w | _ -> usage ()
      in
      match Fold.fold (Fold.of_file file) with
      | f -> Format.printf "%a" (Fold.pp ~wall) f
      | exception Fold.Bad_trace m ->
          prerr_endline ("bad trace: " ^ m);
          exit 1)
  | args ->
      let rec parse acc = function
        | [] -> acc
        | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
            parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
        | _ -> usage ()
      in
      let kv = parse [] args in
      let get k conv =
        match Option.bind (List.assoc_opt k kv) conv with Some v -> v | None -> usage ()
      in
      run ~workload:(get "workload" Option.some) ~seed:(get "seed" int_of_string_opt)
        ~seconds:(get "seconds" float_of_string_opt)
        ~trace:(get "trace" int_of_string_opt <> 0)
