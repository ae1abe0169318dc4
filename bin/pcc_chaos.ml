(* Seeded chaos sweeps: run workloads over a deliberately unreliable
   interconnect — packets dropped, duplicated, delayed, reordered, links
   taken down transiently — with the online coherence oracle attached.
   A sweep passes only if every run quiesces with every operation
   committed and zero oracle violations, and the recovery machinery was
   actually exercised (nonzero retransmit / duplicate-drop counters).

   Seeds are independent simulations, so the sweep fans out across
   domains (--jobs N / PCC_JOBS; 1 = sequential).  Workers never print:
   each run returns a report and the main domain prints them in
   submission order, so output and the --json artifact are bit-identical
   at every jobs level.

   Crash-sweep mode layers scheduled fail-stop node crashes (--crash,
   --restart-after, --crash-nodes) on top of the packet chaos: each run
   additionally kills nodes mid-flight and must recover through the
   epoch/revocation machinery, restart them cold, and still commit every
   operation.

     dune exec bin/pcc_chaos.exe -- --seeds 34
     dune exec bin/pcc_chaos.exe -- --profile storm --seeds 5 --verbose
     dune exec bin/pcc_chaos.exe -- --crash 1 --seeds 12
     dune exec bin/pcc_chaos.exe -- --crash-nodes 1,3 --restart-after 8000 *)

open Cmdliner
open Pcc

let bench_rotation = [| "barnes"; "ocean"; "em3d"; "lu"; "cg"; "mg"; "appbt" |]

let count_accesses programs =
  Array.fold_left
    (fun acc ops ->
      List.fold_left
        (fun acc op ->
          match op with Types.Access _ -> acc + 1 | Types.Compute _ | Types.Barrier _ -> acc)
        acc ops)
    0 programs

type tally = {
  mutable runs : int;
  mutable failures : int;
  mutable retransmits : int;
  mutable dup_dropped : int;
  mutable txn_timeouts : int;
  mutable fallbacks : int;
  mutable injected_drops : int;
  mutable injected_dups : int;
  mutable injected_delays : int;
  mutable injected_outages : int;
  mutable crashes : int;
  mutable restarts : int;
  mutable crash_revoked : int;
}

let tally () =
  {
    runs = 0;
    failures = 0;
    retransmits = 0;
    dup_dropped = 0;
    txn_timeouts = 0;
    fallbacks = 0;
    injected_drops = 0;
    injected_dups = 0;
    injected_delays = 0;
    injected_outages = 0;
    crashes = 0;
    restarts = 0;
    crash_revoked = 0;
  }

(* Failure reasons for one chaotic run; empty list = the run survived. *)
let check_run ~total_ops ~committed (result : System.result) =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match result.stall with
  | None -> ()
  | Some stall ->
      add "did not quiesce: %s"
        (Format.asprintf "%a" System.pp_stall_report stall));
  if committed <> total_ops then
    add "committed %d of %d operations" committed total_ops;
  if result.violations > 0 then add "%d memory-check violations" result.violations;
  (match result.invariant_errors with
  | [] -> ()
  | errs -> add "%d invariant errors (first: %s)" (List.length errs) (List.hd errs));
  List.rev !problems

(* Everything one chaotic run reports back to the main domain. *)
type run_report = {
  rr_seed : int;
  rr_profile : string;
  rr_bench : string;
  rr_workload : string;
      (* resolved workload description (registry describe string) for the
         --json artifact *)
  rr_config : string;
  rr_total_ops : int;
  rr_problems : string list;
  rr_retransmits : int;
  rr_dup_dropped : int;
  rr_txn_timeouts : int;
  rr_fallbacks : int;
  rr_injected_drops : int;
  rr_injected_dups : int;
  rr_injected_delays : int;
  rr_injected_outages : int;
  rr_crashes : int;
  rr_restarts : int;
  rr_crash_revoked : int;
  rr_flight_dump : string option;
      (* armed post-mortem path for this run — the artifact to open when
         the run fails *)
}

(* Fail-stop schedule for one run, derived purely from the run's own
   identity so crash sweeps stay bit-identical across pool widths.
   [crash_nodes], when non-empty, pins the victims (the seeded schedule
   still picks the crash times); otherwise [crash_victims] seeded nodes
   die.  The window sits inside a default-scale run so crashes land
   mid-traffic, and every victim restarts — a sweep must quiesce. *)
let crash_schedule_for ~chaos_seed ~nodes ~crash_victims ~crash_nodes ~restart_after =
  if crash_victims = 0 && crash_nodes = [] then []
  else
    let victims =
      if crash_nodes = [] then crash_victims else List.length crash_nodes
    in
    let sched =
      Fault.crash_schedule ~seed:chaos_seed ~nodes ~victims ~window:(3_000, 12_000)
        ~restart_after ()
    in
    match crash_nodes with
    | [] -> sched
    | explicit -> List.map2 (fun (c : Fault.crash) victim -> { c with victim }) sched explicit

let run_one ~bench ~config_name ~protocol ~nodes ~scale ~seed ~profile_name
    ~txn_timeout ~fallback_threshold ~max_events ~crash_victims ~crash_nodes
    ~restart_after ~flight_dir =
  let desc =
    { Oracle.Trace.bench; config_name; nodes; scale; seed; fault = false }
  in
  (* independent chaos stream per (seed, profile, bench): the workload RNG
     stays pinned by [seed] alone, so the same traffic meets different
     fault schedules *)
  let chaos_seed = (seed * 8191) + Hashtbl.hash (profile_name, bench) in
  let profile =
    match Fault.preset profile_name ~seed:chaos_seed with
    | Some p -> p
    | None ->
        raise
          (Invalid_argument (Printf.sprintf "unknown fault profile %S" profile_name))
  in
  let profile =
    {
      profile with
      Fault.crashes =
        crash_schedule_for ~chaos_seed ~nodes ~crash_victims ~crash_nodes
          ~restart_after;
    }
  in
  let config =
    {
      (Oracle.Trace.config_of_desc desc) with
      Config.protocol;
      net_faults = Some profile;
      txn_timeout;
      fallback_threshold;
    }
  in
  (* resolve through the workload registry: [bench] is a full spec string
     (validated up front in [main], so failure here is a program error) *)
  let workload =
    match Workload.of_spec ~nodes ~scale ~seed bench with
    | Ok w -> w
    | Error message -> invalid_arg ("pcc_chaos: " ^ message)
  in
  let programs = Workload.programs workload in
  let total_ops = count_accesses programs in
  let sys = System.create ~config () in
  (* Deterministic per-run artifact path: a function of the run's own
     identity, so parallel workers never collide and reruns overwrite. *)
  (match flight_dir with
  | None -> ()
  | Some dir ->
      System.arm_flight_dump sys
        ~path:
          (Filename.concat dir
             (Printf.sprintf "seed%d-%s-%s.flight.json" seed profile_name bench)));
  let sweep = Oracle.Runner.attach sys in
  let report =
    {
      rr_seed = seed;
      rr_profile = profile_name;
      rr_bench = bench;
      rr_workload = Workload.describe workload;
      rr_config = config_name;
      rr_total_ops = total_ops;
      rr_problems = [];
      rr_retransmits = 0;
      rr_dup_dropped = 0;
      rr_txn_timeouts = 0;
      rr_fallbacks = 0;
      rr_injected_drops = 0;
      rr_injected_dups = 0;
      rr_injected_delays = 0;
      rr_injected_outages = 0;
      rr_crashes = 0;
      rr_restarts = 0;
      rr_crash_revoked = 0;
      rr_flight_dump = System.flight_dump_path sys;
    }
  in
  match System.run_programs ~max_events sys programs with
  | exception Oracle.Audit.Violation { message; time; _ } ->
      {
        report with
        rr_problems = [ Printf.sprintf "oracle violation at t=%d: %s" time message ];
      }
  | result ->
      let stats = result.System.stats in
      let drops, dups, delays, outages =
        match System.fault_stats sys with
        | Some f -> (f.Fault.dropped, f.Fault.duplicated, f.Fault.delayed, f.Fault.outages_started)
        | None -> (0, 0, 0, 0)
      in
      let stats_errors =
        List.map (fun e -> "stats: " ^ e) (Oracle.Stats_check.check sys result)
      in
      {
        report with
        rr_problems =
          check_run ~total_ops
            ~committed:(Sc_check.commits (System.checker sys))
            result
          @ stats_errors @ sweep ();
        rr_retransmits = stats.Run_stats.retransmits;
        rr_dup_dropped = stats.Run_stats.dup_dropped;
        rr_txn_timeouts = stats.Run_stats.txn_timeouts;
        rr_fallbacks = stats.Run_stats.fallbacks;
        rr_injected_drops = drops;
        rr_injected_dups = dups;
        rr_injected_delays = delays;
        rr_injected_outages = outages;
        rr_crashes = stats.Run_stats.crashes;
        rr_restarts = stats.Run_stats.restarts;
        rr_crash_revoked = stats.Run_stats.crash_revoked;
      }

let absorb t (r : run_report) =
  t.runs <- t.runs + 1;
  if r.rr_problems <> [] then t.failures <- t.failures + 1;
  t.retransmits <- t.retransmits + r.rr_retransmits;
  t.dup_dropped <- t.dup_dropped + r.rr_dup_dropped;
  t.txn_timeouts <- t.txn_timeouts + r.rr_txn_timeouts;
  t.fallbacks <- t.fallbacks + r.rr_fallbacks;
  t.injected_drops <- t.injected_drops + r.rr_injected_drops;
  t.injected_dups <- t.injected_dups + r.rr_injected_dups;
  t.injected_delays <- t.injected_delays + r.rr_injected_delays;
  t.injected_outages <- t.injected_outages + r.rr_injected_outages;
  t.crashes <- t.crashes + r.rr_crashes;
  t.restarts <- t.restarts + r.rr_restarts;
  t.crash_revoked <- t.crash_revoked + r.rr_crash_revoked

let print_report ~verbose (r : run_report) =
  match r.rr_problems with
  | [] ->
      if verbose then
        Printf.printf "ok   seed=%d profile=%-7s bench=%-6s config=%s (%d ops)\n%!"
          r.rr_seed r.rr_profile r.rr_bench r.rr_config r.rr_total_ops
  | problems ->
      Printf.printf "FAIL seed=%d profile=%s bench=%s config=%s\n" r.rr_seed
        r.rr_profile r.rr_bench r.rr_config;
      List.iter (fun p -> Printf.printf "  %s\n%!" p) problems;
      (match r.rr_flight_dump with
      | Some path ->
          Printf.printf "  post-mortem: %s (decode with pcc_trace --flight %s)\n%!"
            path path
      | None -> ())

let json_of_report (r : run_report) =
  Jsonl.Obj
    [
      ("seed", Jsonl.Int r.rr_seed);
      ("profile", Jsonl.String r.rr_profile);
      ("bench", Jsonl.String r.rr_bench);
      ("workload", Jsonl.String r.rr_workload);
      ("config", Jsonl.String r.rr_config);
      ("total_ops", Jsonl.Int r.rr_total_ops);
      ("problems", Jsonl.List (List.map (fun p -> Jsonl.String p) r.rr_problems));
      ("retransmits", Jsonl.Int r.rr_retransmits);
      ("dup_dropped", Jsonl.Int r.rr_dup_dropped);
      ("txn_timeouts", Jsonl.Int r.rr_txn_timeouts);
      ("fallbacks", Jsonl.Int r.rr_fallbacks);
      ("injected_drops", Jsonl.Int r.rr_injected_drops);
      ("injected_dups", Jsonl.Int r.rr_injected_dups);
      ("injected_delays", Jsonl.Int r.rr_injected_delays);
      ("injected_outages", Jsonl.Int r.rr_injected_outages);
      ("crashes", Jsonl.Int r.rr_crashes);
      ("restarts", Jsonl.Int r.rr_restarts);
      ("crash_revoked", Jsonl.Int r.rr_crash_revoked);
      ( "flight_dump",
        match r.rr_flight_dump with Some p -> Jsonl.String p | None -> Jsonl.Null );
    ]

let write_json path t reports =
  let doc =
    Jsonl.Obj
      [
        ("runs", Jsonl.List (List.map json_of_report reports));
        ( "tally",
          Jsonl.Obj
            [
              ("runs", Jsonl.Int t.runs);
              ("failures", Jsonl.Int t.failures);
              ("injected_drops", Jsonl.Int t.injected_drops);
              ("injected_dups", Jsonl.Int t.injected_dups);
              ("injected_delays", Jsonl.Int t.injected_delays);
              ("injected_outages", Jsonl.Int t.injected_outages);
              ("retransmits", Jsonl.Int t.retransmits);
              ("dup_dropped", Jsonl.Int t.dup_dropped);
              ("txn_timeouts", Jsonl.Int t.txn_timeouts);
              ("fallbacks", Jsonl.Int t.fallbacks);
              ("crashes", Jsonl.Int t.crashes);
              ("restarts", Jsonl.Int t.restarts);
              ("crash_revoked", Jsonl.Int t.crash_revoked);
            ] );
      ]
  in
  Atomic_file.write ~path (fun oc ->
      output_string oc (Jsonl.to_string doc);
      output_char oc '\n')

let main workload_pin seeds protocol nodes scale profile_filter txn_timeout
    fallback_threshold max_events jobs json_path verbose crash_victims crash_nodes
    restart_after flight_dir metrics_path =
  let pin_error =
    (* validate the pinned spec loudly up front — workers must never be the
       first place an unknown workload name is noticed *)
    match workload_pin with
    | None -> None
    | Some spec -> (
        match Workload.of_spec ~nodes ~scale ~seed:1 spec with
        | Ok _ -> None
        | Error message -> Some message)
  in
  match pin_error with
  | Some message ->
      Printf.eprintf "pcc_chaos: %s\n" message;
      2
  | None ->
  if protocol <> Types.Adaptive && (crash_victims > 0 || crash_nodes <> []) then begin
    Printf.eprintf
      "pcc_chaos: fail-stop crashes need the adaptive backend (--protocol %s given)\n"
      (Protocol.to_string protocol);
    2
  end
  else if nodes < 2 then begin
    Printf.eprintf "pcc_chaos: --nodes must be at least 2 (got %d)\n" nodes;
    2
  end
  else if crash_victims < 0 || crash_victims > nodes - 1 then begin
    Printf.eprintf "pcc_chaos: --crash must be in [0, nodes-1] (got %d)\n"
      crash_victims;
    2
  end
  else if restart_after <= 0 then begin
    (* a sweep's pass criterion is full quiescence with every operation
       committed; a victim that never returns cannot satisfy it, so
       permanent death stays in the test suite, not the sweep *)
    Printf.eprintf "pcc_chaos: --restart-after must be positive (got %d)\n"
      restart_after;
    2
  end
  else if
    List.exists (fun v -> v < 0 || v >= nodes) crash_nodes
    || List.length (List.sort_uniq compare crash_nodes) <> List.length crash_nodes
    || List.length crash_nodes > nodes - 1
  then begin
    Printf.eprintf
      "pcc_chaos: --crash-nodes must list distinct nodes in [0, %d], leaving at \
       least one survivor\n"
      (nodes - 1);
    2
  end
  else begin
    let flight_dir =
      match flight_dir with
      | "none" -> None
      | dir ->
          (match Sys.mkdir dir 0o755 with
          | () -> ()
          | exception Sys_error _ -> ());
          Some dir
    in
    let profiles =
      match profile_filter with
      | Some name -> [ name ]
      | None -> List.map fst Fault.presets
    in
    (* Same nesting as the sequential loops ever had: seed, profile,
       bench — the submission order is the print order. *)
    let cells =
      List.concat_map
        (fun seed ->
          let benches =
            match workload_pin with
            | Some spec -> [ spec ]
            | None ->
                [ "random"; bench_rotation.((seed - 1) mod Array.length bench_rotation) ]
          in
          List.concat_map
            (fun profile_name ->
              List.map (fun bench -> (seed, profile_name, bench)) benches)
            profiles)
        (List.init seeds (fun i -> i + 1))
    in
    let tasks =
      List.map
        (fun (seed, profile_name, bench) ->
          ( Printf.sprintf "seed=%d/%s/%s" seed profile_name bench,
            fun () ->
              run_one ~bench ~config_name:"full" ~protocol ~nodes ~scale ~seed
                ~profile_name ~txn_timeout ~fallback_threshold ~max_events
                ~crash_victims ~crash_nodes ~restart_after ~flight_dir ))
        cells
    in
    let reports = Pool.run_keyed ~jobs tasks in
    let t = tally () in
    List.iter
      (fun report ->
        absorb t report;
        print_report ~verbose report)
      reports;
    let crash_mode = crash_victims > 0 || crash_nodes <> [] in
    Printf.printf
      "%d chaotic runs, %d failures\n\
       injected: %d drops, %d duplicates, %d delays, %d outages\n\
       recovered: %d retransmits, %d duplicates dropped, %d txn timeouts, %d fallbacks\n"
      t.runs t.failures t.injected_drops t.injected_dups t.injected_delays
      t.injected_outages t.retransmits t.dup_dropped t.txn_timeouts t.fallbacks;
    if crash_mode then
      Printf.printf "crashed: %d fail-stops, %d restarts, %d delegations revoked\n"
        t.crashes t.restarts t.crash_revoked;
    (match json_path with Some path -> write_json path t reports | None -> ());
    Cli_common.write_metrics metrics_path (fun registry ->
        let module R = Telemetry.Registry in
        R.counter registry "pcc_chaos_runs" t.runs;
        R.counter registry "pcc_chaos_failures" t.failures;
        R.counter registry "pcc_chaos_injected_drops" t.injected_drops;
        R.counter registry "pcc_chaos_injected_dups" t.injected_dups;
        R.counter registry "pcc_chaos_injected_delays" t.injected_delays;
        R.counter registry "pcc_chaos_injected_outages" t.injected_outages;
        R.counter registry "pcc_retransmits" t.retransmits;
        R.counter registry "pcc_dup_dropped" t.dup_dropped;
        R.counter registry "pcc_txn_timeouts" t.txn_timeouts;
        R.counter registry "pcc_fallbacks" t.fallbacks;
        R.counter registry "pcc_crashes" t.crashes;
        R.counter registry "pcc_restarts" t.restarts;
        R.counter registry "pcc_crash_revoked" t.crash_revoked);
    if t.failures > 0 then 1
    else if t.retransmits = 0 || t.dup_dropped = 0 then begin
      (* a sweep that never had to recover proves nothing *)
      Printf.printf "SWEEP TOO QUIET: recovery machinery never exercised\n";
      1
    end
    else if crash_mode && t.crashes = 0 then begin
      Printf.printf "SWEEP TOO QUIET: crash mode on but no node ever fail-stopped\n";
      1
    end
    else 0
  end

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"NAME"
        ~doc:"Run a single fault profile (drops, storm, outages) instead of all.")

let txn_timeout_arg =
  Arg.(
    value & opt int 2000
    & info [ "txn-timeout" ] ~docv:"CYCLES"
        ~doc:"Initial per-transaction completion timeout.")

let fallback_arg =
  Arg.(
    value & opt int 2
    & info [ "fallback-threshold" ] ~docv:"N"
        ~doc:"Timeout strikes before a line falls back to the base protocol.")

let crash_arg =
  Arg.(
    value & opt int 0
    & info [ "crash" ] ~docv:"N"
        ~doc:
          "Fail-stop $(docv) seeded victim nodes per run (0 disables; at least \
           one node always survives).  Victims lose all volatile state, are \
           detected and recovered from by the directory, and restart cold.")

let crash_nodes_arg =
  let parse s =
    try
      Ok
        (String.split_on_char ',' s
        |> List.filter (fun x -> String.trim x <> "")
        |> List.map (fun x -> int_of_string (String.trim x)))
    with Failure _ -> Error (`Msg (Printf.sprintf "%S: expected node ids like 1,3" s))
  in
  let print ppf vs =
    Format.pp_print_string ppf (String.concat "," (List.map string_of_int vs))
  in
  Arg.(
    value
    & opt (conv (parse, print)) []
    & info [ "crash-nodes" ] ~docv:"IDS"
        ~doc:
          "Comma-separated victim nodes (e.g. 1,3) to crash instead of seeded \
           picks; crash times stay seeded.  Overrides $(b,--crash).")

let restart_after_arg =
  Arg.(
    value & opt int 5_000
    & info [ "restart-after" ] ~docv:"CYCLES"
        ~doc:
          "Cycles between a victim's fail-stop and its cold restart.  Must be \
           positive: a sweep's pass criterion needs every victim back to \
           commit its remaining operations.")

let flight_dir_arg =
  Arg.(
    value & opt string "flight-dumps"
    & info [ "flight-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for flight-recorder post-mortems (created if missing; \
           $(b,none) disables arming).  Every run arms a deterministic \
           per-run dump path there; on a stall, crash or oracle violation \
           the retained event window lands at that path and the failure \
           report names it (decode with $(b,pcc_trace --flight)).")

let cmd =
  let term =
    Term.(
      const main
      $ Cli_common.workload_spec
          ~doc:
            "Pin every chaotic run to one workload spec ($(i,NAME) or \
             $(i,NAME:key=value,...)) instead of the random + rotating-benchmark \
             pair per seed."
          ()
      $ Cli_common.seeds ~default:34
          ~doc:"Seeds per fault profile (each seed runs 2 benchmarks)." ()
      $ Cli_common.protocol ()
      $ Cli_common.nodes ~default:6 ()
      $ Cli_common.scale ~default:0.15 ~doc:"Run-length scale for app benchmarks." ()
      $ profile_arg $ txn_timeout_arg $ fallback_arg
      $ Cli_common.max_events ()
      $ Cli_common.jobs ~what:"chaotic runs" ()
      $ Cli_common.json
          ~doc:"Write machine-readable per-run reports and the final tally to $(docv)."
          ()
      $ Cli_common.verbose ~doc:"Print each passing run." ()
      $ crash_arg $ crash_nodes_arg $ restart_after_arg $ flight_dir_arg
      $ Cli_common.metrics ())
  in
  Cmd.v
    (Cmd.info "pcc_chaos"
       ~doc:
         "Seeded chaos sweeps: coherence under an unreliable interconnect — and \
          under scheduled fail-stop node crashes — with the online oracle attached")
    term

let () = exit (Cmd.eval' cmd)
